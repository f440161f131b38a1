package evalgen

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"openwf/internal/community"
	"openwf/internal/engine"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/stats"
	"openwf/internal/transport/inmem"
)

// ExperimentConfig describes one evaluation experiment: a supergraph of
// Tasks task nodes partitioned across Hosts hosts, measured for each path
// length over Runs runs (the paper averages 1000 runs per point).
type ExperimentConfig struct {
	// Tasks is the number of task nodes in the supergraph.
	Tasks int
	// Hosts is the community size.
	Hosts int
	// PathLengths are the x values to measure.
	PathLengths []int
	// Runs is the number of measurements per path length.
	Runs int
	// Seed makes the experiment reproducible.
	Seed int64
	// Transport selects the substrate (default in-memory).
	Transport community.Transport
	// LinkModel adds a latency model to the in-memory network (e.g. the
	// 802.11g model for the empirical configuration).
	LinkModel inmem.LinkModel
	// DisableMarshal skips gob encoding on the in-memory network.
	DisableMarshal bool
	// Engine overrides the per-host engine configuration.
	Engine *engine.Config
}

// EvalEngineConfig is the engine configuration used by the evaluation
// harness: incremental collection with feasibility filtering (the paper's
// system), windows placed far in the future (allocation only; nothing
// executes), and a generous window so long chains fit.
func EvalEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.StartDelay = time.Hour
	cfg.TaskWindow = time.Minute
	cfg.CallTimeout = 10 * time.Second
	return cfg
}

// ExperimentResult is one measured series plus its setup metadata.
type ExperimentResult struct {
	// Series holds a sample of run durations (seconds) per path length.
	Series *stats.Series
	// MaxPathLength is the supergraph's longest shortest-path.
	MaxPathLength int
	// Messages is the total network message count across all runs
	// (in-memory transport only).
	Messages int64
	// Skipped counts (length, run) pairs skipped because the supergraph
	// has no path of the requested length.
	Skipped int
}

// RunExperiment builds the community once, then for every requested path
// length performs Runs measurements: draw a specification of that length,
// measure the time from handing it to the initiating host until every
// task of the resulting workflow is allocated, and reset the schedules
// (each run is an independent problem). Canceling ctx aborts the
// experiment between (and inside) measurements.
func RunExperiment(ctx context.Context, cfg ExperimentConfig, seriesName string) (*ExperimentResult, error) {
	if cfg.Tasks < 2 || cfg.Hosts < 1 || cfg.Runs < 1 {
		return nil, fmt.Errorf("evalgen: invalid experiment config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc, err := Generate(cfg.Tasks, rng)
	if err != nil {
		return nil, err
	}
	comm, hosts, err := BuildCommunity(sc, cfg, rng)
	if err != nil {
		return nil, err
	}
	defer comm.Close()

	initiator := hosts[0]
	series := stats.NewSeries(seriesName)
	result := &ExperimentResult{Series: series, MaxPathLength: sc.MaxPathLength()}

	for _, length := range cfg.PathLengths {
		sample := series.At(length)
		for run := 0; run < cfg.Runs; run++ {
			s, ok := sc.SamplePath(length, rng)
			if !ok {
				result.Skipped++
				continue
			}
			//openwf:allow-wallclock measures wall latency of Initiate over the modeled medium — the experiment's reported quantity
			start := time.Now()
			plan, err := comm.Initiate(ctx, initiator, s)
			elapsed := time.Since(start) //openwf:allow-wallclock measures wall latency of Initiate over the modeled medium
			if err != nil {
				return nil, fmt.Errorf("length %d run %d: %w", length, run, err)
			}
			if plan.Workflow.NumTasks() != length {
				return nil, fmt.Errorf("length %d run %d: workflow has %d tasks",
					length, run, plan.Workflow.NumTasks())
			}
			sample.AddDuration(elapsed)
			comm.ResetSchedules()
		}
		if sample.N() == 0 {
			// No path of this length exists in the supergraph:
			// drop the empty point (the paper's cut-off curves).
			delete(series.Points, length)
		}
	}
	if net := comm.Network(); net != nil {
		result.Messages = net.Messages()
	}
	return result, nil
}

// BuildCommunity materializes a scenario into a running community:
// fragments and services distributed randomly and evenly across the
// hosts. It returns the community and the host addresses (the first is
// the conventional initiator).
func BuildCommunity(sc *Scenario, cfg ExperimentConfig, rng *rand.Rand) (*community.Community, []proto.Addr, error) {
	fragParts, err := sc.DistributeFragments(cfg.Hosts, rng)
	if err != nil {
		return nil, nil, err
	}
	svcParts, err := sc.DistributeServices(cfg.Hosts, rng)
	if err != nil {
		return nil, nil, err
	}
	engCfg := EvalEngineConfig()
	if cfg.Engine != nil {
		engCfg = *cfg.Engine
	}
	specs := make([]community.HostSpec, cfg.Hosts)
	addrs := make([]proto.Addr, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		addr := proto.Addr(fmt.Sprintf("host%02d", i))
		specs[i] = community.HostSpec{
			ID:        addr,
			Fragments: fragParts[i],
			Services:  svcParts[i],
		}
		addrs[i] = addr
	}
	comm, err := community.New(community.Options{
		Transport:      cfg.Transport,
		LinkModel:      cfg.LinkModel,
		Seed:           cfg.Seed,
		DisableMarshal: cfg.DisableMarshal,
		Engine:         &engCfg,
	}, specs...)
	if err != nil {
		return nil, nil, err
	}
	return comm, addrs, nil
}

// BuildReplicatedCommunity materializes a scenario like BuildCommunity,
// but with every service replicated on every host except the first (the
// initiator stays service-free so each allocation crosses the network).
// Knowhow is still spread randomly. With per-task sole providers
// (BuildCommunity), concurrent sessions that need the same provider and
// window can only resolve by postponing in lockstep; replication makes
// capacity scale with the community, which is the configuration the
// concurrent-allocation benchmarks measure.
func BuildReplicatedCommunity(sc *Scenario, cfg ExperimentConfig, rng *rand.Rand) (*community.Community, []proto.Addr, error) {
	fragParts, err := sc.DistributeFragments(cfg.Hosts, rng)
	if err != nil {
		return nil, nil, err
	}
	allServices := make([]service.Registration, 0, sc.NumTasks())
	for i := 0; i < sc.NumTasks(); i++ {
		allServices = append(allServices, service.Registration{
			Descriptor: service.Descriptor{Task: sc.Task(i).ID, Specialization: 0.5},
		})
	}
	engCfg := EvalEngineConfig()
	if cfg.Engine != nil {
		engCfg = *cfg.Engine
	}
	specs := make([]community.HostSpec, cfg.Hosts)
	addrs := make([]proto.Addr, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		addr := proto.Addr(fmt.Sprintf("host%02d", i))
		specs[i] = community.HostSpec{ID: addr, Fragments: fragParts[i]}
		if i > 0 || cfg.Hosts == 1 {
			specs[i].Services = allServices
		}
		addrs[i] = addr
	}
	comm, err := community.New(community.Options{
		Transport:      cfg.Transport,
		LinkModel:      cfg.LinkModel,
		Seed:           cfg.Seed,
		DisableMarshal: cfg.DisableMarshal,
		Engine:         &engCfg,
	}, specs...)
	if err != nil {
		return nil, nil, err
	}
	return comm, addrs, nil
}

// ConcurrentInitiateSetup builds the community and specification pool of
// the root BenchmarkConcurrentInitiate: a 100-task scenario
// over `hosts` hosts with replicated services on the modeled 802.11g
// medium, broadcast queries, generous window retries (contended
// sessions postpone windows instead of excluding tasks), and a pool of
// pre-sampled length-6 specifications. ok is false when the scenario
// has no path of length 6.
func ConcurrentInitiateSetup(hosts, poolSize int) (*community.Community, []proto.Addr, []spec.Spec, error) {
	engCfg := EvalEngineConfig()
	engCfg.ParallelQuery = true
	engCfg.WindowRetries = 8
	engCfg.MaxReplans = 5
	rng := rand.New(rand.NewSource(1))
	sc, err := Generate(100, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	comm, addrs, err := BuildReplicatedCommunity(sc, ExperimentConfig{
		Tasks: 100, Hosts: hosts, Seed: 1,
		LinkModel: Wireless80211g(),
		Engine:    &engCfg,
	}, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	pool := make([]spec.Spec, 0, poolSize)
	for len(pool) < poolSize {
		s, ok := sc.SamplePath(6, rng)
		if !ok {
			_ = comm.Close()
			return nil, nil, nil, fmt.Errorf("evalgen: scenario has no path of length 6")
		}
		pool = append(pool, s)
	}
	return comm, addrs, pool, nil
}

// Wireless80211g returns the link model used for the empirical (Figure 6)
// configuration: 802.11g at 54 Mbit/s with a 0.5 ms per-hop base latency
// (DIFS/SIFS/ACK overhead plus contention backoff) and 0.2 ms jitter —
// typical single-hop ad hoc figures for small control frames.
func Wireless80211g() inmem.LinkModel {
	return inmem.Wireless(500*time.Microsecond, 200*time.Microsecond, 54e6)
}
