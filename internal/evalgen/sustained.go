package evalgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/backlog"
	"openwf/internal/clock"
	"openwf/internal/community"
	"openwf/internal/daemon"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// SustainedConfig describes one closed-loop sustained-load run against a
// daemon on the seeded virtual clock: Clients submitters each keep one
// request in flight (submit, wait, submit again) for Duration of virtual
// time, cycling through the priority classes, while a driver goroutine
// advances the simulated clock. The run measures what the one-shot
// benchmarks cannot: serving behavior over minutes — sustained
// Initiates/sec, tail latency including queue wait, admission shedding
// under overload, and a clean drain.
type SustainedConfig struct {
	// Tasks is the supergraph size (default 60).
	Tasks int
	// Hosts is the community size (default 6).
	Hosts int
	// Clients is the closed-loop submitter count — the offered
	// concurrency (default 8).
	Clients int
	// Workers bounds the daemon's concurrent Initiates (0 = the
	// initiator host's worker bound).
	Workers int
	// Backlog is the daemon's per-class queue capacity (0 = the daemon
	// default). Small values against many clients force admission
	// rejections — the overload row.
	Backlog int
	// PathLength is the sampled specification length (default 4).
	PathLength int
	// Duration is the virtual serving window (default one minute).
	Duration time.Duration
	// Seed makes the run reproducible.
	Seed int64
}

func (c *SustainedConfig) setDefaults() {
	if c.Tasks == 0 {
		c.Tasks = 60
	}
	if c.Hosts == 0 {
		c.Hosts = 6
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.PathLength == 0 {
		c.PathLength = 4
	}
	if c.Duration == 0 {
		c.Duration = time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SustainedResult reports one sustained-load run. The latency quantiles
// are virtual seconds from admission to completion (queue wait
// included); Throughput is completed Initiates per virtual second.
type SustainedResult struct {
	Hosts   int `json:"hosts"`
	Clients int `json:"clients"`
	Workers int `json:"workers"`
	Backlog int `json:"backlog"`

	Accepted       int64 `json:"accepted"`
	Rejected       int64 `json:"rejected"`
	Completed      int64 `json:"completed"`
	Aborted        int64 `json:"aborted"`
	ClientRejected int64 `json:"client_rejected"`

	Throughput  float64 `json:"throughput_per_sec"`
	LatencyP50  float64 `json:"latency_p50_sec"`
	LatencyP99  float64 `json:"latency_p99_sec"`
	LatencyP999 float64 `json:"latency_p999_sec"`

	VirtualElapsed time.Duration `json:"virtual_elapsed_ns"`
	WallElapsed    time.Duration `json:"wall_elapsed_ns"`

	// FinalBacklog, FinalHolds, and FinalCommitments are read after the
	// drain completed and the un-executed plans' leases lapsed: all zero.
	FinalBacklog     int `json:"final_backlog"`
	FinalHolds       int `json:"final_holds"`
	FinalCommitments int `json:"final_commitments"`
}

// sustainedT0 anchors the virtual clock (any fixed instant works; runs
// are reproducible against it).
var sustainedT0 = time.Date(2009, 11, 30, 12, 0, 0, 0, time.UTC)

// SustainedLoad builds a daemon-owned community on a simulated clock and
// serves a closed-loop workload against it; the CI smoke test drives it.
// Canceling ctx unwinds the closed loop: clients stop on their next
// request and the drain deadline collapses to the cancellation.
func SustainedLoad(ctx context.Context, cfg SustainedConfig) (*SustainedResult, error) {
	cfg.setDefaults()
	wallStart := time.Now() //openwf:allow-wallclock wall-elapsed reporting: WallElapsed records real harness runtime alongside the virtual duration

	rng := rand.New(rand.NewSource(cfg.Seed))
	sc, err := Generate(cfg.Tasks, rng)
	if err != nil {
		return nil, err
	}
	fragParts, err := sc.DistributeFragments(cfg.Hosts, rng)
	if err != nil {
		return nil, err
	}
	// Replicated services (the concurrent-allocation configuration):
	// capacity scales with the community, so the daemon — not a sole
	// provider — is the bottleneck under load.
	allServices := make([]service.Registration, 0, sc.NumTasks())
	for i := 0; i < sc.NumTasks(); i++ {
		allServices = append(allServices, service.Registration{
			Descriptor: service.Descriptor{Task: sc.Task(i).ID, Specialization: 0.5},
		})
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

	// Pre-sample the specification pool so clients never touch the rng
	// concurrently.
	const poolSize = 64
	pool := make([]spec.Spec, 0, poolSize)
	for len(pool) < poolSize {
		s, ok := sc.SamplePath(cfg.PathLength, rng)
		if !ok {
			return nil, fmt.Errorf("evalgen: scenario has no path of length %d", cfg.PathLength)
		}
		pool = append(pool, s)
	}

	engCfg := EvalEngineConfig()
	engCfg.ParallelQuery = true
	engCfg.WindowRetries = 8
	engCfg.MaxReplans = 5
	sim := clock.NewSim(sustainedT0)
	srv, err := daemon.Start(community.Options{
		Clock:          sim,
		Seed:           cfg.Seed,
		DisableMarshal: true,
		Engine:         &engCfg,
		// Generous virtual bid window: the driver advances in coarse
		// steps, and a hold must survive several of them between bid
		// and award.
		BidWindow: 10 * time.Second,
	}, addrs[0], daemon.Config{Workers: cfg.Workers, Backlog: cfg.Backlog}, specs...)
	if err != nil {
		return nil, err
	}
	comm := srv.Community()

	// Drive the virtual clock from the background (the chaos-test
	// pattern): coarse virtual steps, tiny wall sleeps, so timeouts,
	// bid expiries, and lease sweeps fire while real goroutines run.
	stopDriver := make(chan struct{})
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		for {
			select {
			case <-stopDriver:
				return
			default:
				sim.Advance(200 * time.Millisecond)
				time.Sleep(time.Millisecond) //openwf:allow-wallclock paces the virtual-clock driver so worker goroutines get real scheduler time between advances
			}
		}
	}()

	deadline := sustainedT0.Add(cfg.Duration)
	classes := backlog.Classes()
	var clientRejected atomic.Int64
	var clientWG sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			i := c
			for sim.Now().Before(deadline) {
				req := daemon.Request{
					Spec:  pool[i%len(pool)],
					Class: classes[i%len(classes)],
				}
				i += cfg.Clients
				res, err := srv.Do(ctx, req)
				var rej *backlog.RejectedError
				switch {
				case errors.As(err, &rej):
					// Typed backpressure: shed and come back — a tiny
					// wall pause keeps a saturated loop from spinning.
					clientRejected.Add(1)
					time.Sleep(time.Millisecond) //openwf:allow-wallclock real pause on shed keeps a saturated closed loop from spinning the CPU; virtual time is advanced by the driver

				case err != nil:
					return // draining: the window closed under us
				default:
					// Completion and failure are counted server-side
					// (Snapshot); res.Err needs no client action in a
					// closed loop.
					_ = res
				}
			}
		}(c)
	}
	clientWG.Wait()
	virtualElapsed := sim.Now().Sub(sustainedT0)

	// Clean shutdown: finish everything admitted...
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	err = srv.Drain(drainCtx)
	cancel()
	if err != nil {
		_ = srv.Close()
		close(stopDriver)
		driverWG.Wait()
		return nil, fmt.Errorf("evalgen: drain: %w", err)
	}
	// ...then let the lease horizon pass: nobody executes or releases the
	// plans this Initiate-only daemon hands back, so their commitments leave
	// by lease expiry only (an executed workflow is released when it ends).
	for i := 0; i < 600 && comm.TotalCommitments()+comm.TotalHolds() > 0; i++ {
		sim.Advance(time.Minute)
		time.Sleep(time.Millisecond) //openwf:allow-wallclock yields real scheduler time so lease sweeps triggered by the advance can land
	}
	close(stopDriver)
	driverWG.Wait()

	snap := srv.Snapshot()
	res := &SustainedResult{
		Hosts:            cfg.Hosts,
		Clients:          cfg.Clients,
		Workers:          cfg.Workers,
		Backlog:          cfg.Backlog,
		Accepted:         snap.Accepted,
		Rejected:         snap.Rejected,
		Completed:        snap.Completed,
		Aborted:          snap.Aborted,
		ClientRejected:   clientRejected.Load(),
		LatencyP50:       snap.LatencyP50,
		LatencyP99:       snap.LatencyP99,
		LatencyP999:      snap.LatencyP999,
		VirtualElapsed:   virtualElapsed,
		WallElapsed:      time.Since(wallStart), //openwf:allow-wallclock wall-elapsed reporting: real harness runtime alongside the virtual duration
		FinalBacklog:     snap.Backlog,
		FinalHolds:       comm.TotalHolds(),
		FinalCommitments: comm.TotalCommitments(),
	}
	if secs := virtualElapsed.Seconds(); secs > 0 {
		res.Throughput = float64(snap.Completed) / secs
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	return res, nil
}
