package evalgen

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"openwf/internal/community"
	"openwf/internal/engine"
	"openwf/internal/model"
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
	// Community configures the community as community.New takes it. Its
	// Seed also seeds the scenario and the specification draws, so it
	// makes the experiment reproducible; a nil Engine selects
	// EvalEngineConfig.
	Community community.Options
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
// length performs Runs measurements: draw a specification of that length
// and measure it (see measure). Canceling ctx aborts the experiment between
// (and inside) measurements.
func RunExperiment(ctx context.Context, cfg ExperimentConfig, seriesName string) (*ExperimentResult, error) {
	if cfg.Tasks < 2 || cfg.Hosts < 1 || cfg.Runs < 1 {
		return nil, fmt.Errorf("evalgen: invalid experiment config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Community.Seed))
	sc, err := Generate(cfg.Tasks, rng)
	if err != nil {
		return nil, err
	}
	comm, hosts, err := BuildCommunity(sc, cfg, rng)
	if err != nil {
		return nil, err
	}
	defer comm.Close()

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
			elapsed, err := measure(ctx, comm, hosts[0], s, length)
			if err != nil {
				return nil, fmt.Errorf("length %d run %d: %w", length, run, err)
			}
			sample.AddDuration(elapsed)
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

// measure times one run: from handing s to the initiating host until every
// task of the resulting workflow — length tasks — is allocated. Each run is
// an independent problem, so afterwards the calendars are cleared and the
// initiator forgets what the community told it: the paper's timed window
// includes collecting the knowhow, which a host that remembers its members'
// answers would pay on its first run only.
func measure(ctx context.Context, comm *community.Community, initiator proto.Addr, s spec.Spec, length int) (time.Duration, error) {
	//openwf:allow-wallclock measures wall latency of Initiate over the modeled medium — the experiment's reported quantity
	start := time.Now()
	plan, err := comm.Initiate(ctx, initiator, s)
	elapsed := time.Since(start) //openwf:allow-wallclock measures wall latency of Initiate over the modeled medium
	if err != nil {
		return 0, err
	}
	if plan.Workflow.NumTasks() != length {
		return 0, fmt.Errorf("workflow has %d tasks", plan.Workflow.NumTasks())
	}
	comm.ResetSchedules()
	if h, ok := comm.Host(initiator); ok {
		h.Discovery().Reset()
	}
	return elapsed, nil
}

// BuildCommunity materializes a scenario into a running community:
// fragments and services distributed randomly and evenly across the
// hosts. It returns the community and the host addresses (the first is
// the conventional initiator).
func BuildCommunity(sc *Scenario, cfg ExperimentConfig, rng *rand.Rand) (*community.Community, []proto.Addr, error) {
	frags, err := sc.DistributeFragments(cfg.Hosts, rng)
	if err != nil {
		return nil, nil, err
	}
	svcs, err := sc.DistributeServices(cfg.Hosts, rng)
	if err != nil {
		return nil, nil, err
	}
	return build(cfg, frags, svcs)
}

// buildReplicatedCommunity materializes a scenario like BuildCommunity,
// but with every service replicated on every host except the first (the
// initiator stays service-free so each allocation crosses the network).
// Knowhow is still spread randomly. With per-task sole providers
// (BuildCommunity), concurrent sessions that need the same provider and
// window can only resolve by postponing in lockstep; replication makes
// capacity scale with the community, which is the configuration the
// concurrent-allocation benchmarks measure.
func buildReplicatedCommunity(sc *Scenario, cfg ExperimentConfig, rng *rand.Rand) (*community.Community, []proto.Addr, error) {
	frags, err := sc.DistributeFragments(cfg.Hosts, rng)
	if err != nil {
		return nil, nil, err
	}
	all := make([]service.Registration, 0, sc.NumTasks())
	for i := 0; i < sc.NumTasks(); i++ {
		all = append(all, service.Registration{
			Descriptor: service.Descriptor{Task: sc.Task(i).ID, Specialization: 0.5},
		})
	}
	svcs := make([][]service.Registration, cfg.Hosts)
	for i := range svcs {
		if i > 0 || cfg.Hosts == 1 {
			svcs[i] = all
		}
	}
	return build(cfg, frags, svcs)
}

// build starts the community of cfg in which host i holds frags[i] and
// offers svcs[i].
func build(cfg ExperimentConfig, frags [][]*model.Fragment, svcs [][]service.Registration) (*community.Community, []proto.Addr, error) {
	opts := cfg.Community
	if opts.Engine == nil {
		engCfg := EvalEngineConfig()
		opts.Engine = &engCfg
	}
	specs := make([]community.HostSpec, cfg.Hosts)
	addrs := make([]proto.Addr, cfg.Hosts)
	for i := range specs {
		addrs[i] = proto.Addr(fmt.Sprintf("host%02d", i))
		specs[i] = community.HostSpec{ID: addrs[i], Fragments: frags[i], Services: svcs[i]}
	}
	comm, err := community.New(opts, specs...)
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
	comm, addrs, err := buildReplicatedCommunity(sc, ExperimentConfig{
		Tasks: 100, Hosts: hosts,
		Community: community.Options{Seed: 1, LinkModel: Wireless80211g(), Engine: &engCfg},
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
// typical single-hop ad hoc figures for small control frames. These three
// numbers are written here and nowhere else; openwf.Wireless80211g returns
// this model.
func Wireless80211g() inmem.LinkModel {
	return inmem.Wireless(500*time.Microsecond, 200*time.Microsecond, 54e6)
}
