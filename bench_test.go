// Benchmarks reproducing the paper's evaluation (§5): one benchmark per
// result figure plus ablations of the design choices called out in
// DESIGN.md. Each benchmark op measures the paper's timed window — from
// the specification being given to the initiating host until every task
// of the resulting workflow is allocated.
//
// The full parameter sweeps with per-path-length averages (the actual
// figures) are produced by cmd/figures; the benchmarks here pin
// representative grid points so `go test -bench` tracks them over time.
//
//	go test -bench=. -benchmem
package openwf_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"openwf/internal/community"
	"openwf/internal/core"
	"openwf/internal/evalgen"
	"openwf/internal/spec"
)

// benchPoint measures one (tasks, hosts, path length) grid point. Each op is
// an independent problem: calendars cleared, and the initiator's memory of
// its community forgotten — the paper's timed window includes collecting the
// knowhow (evalgen.RunExperiment does the same between measurements).
func benchPoint(b *testing.B, cfg evalgen.ExperimentConfig, length int) {
	b.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc, err := evalgen.Generate(cfg.Tasks, rng)
	if err != nil {
		b.Fatal(err)
	}
	if sc.MaxPathLength() < length {
		b.Skipf("supergraph max path %d < requested %d", sc.MaxPathLength(), length)
	}
	comm, hosts, err := evalgen.BuildCommunity(sc, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	defer comm.Close()
	initiator, _ := comm.Host(hosts[0])

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, ok := sc.SamplePath(length, rng)
		if !ok {
			b.Skipf("no path of length %d", length)
		}
		comm.ResetSchedules()
		initiator.Discovery().Reset()
		b.StartTimer()
		plan, err := comm.Initiate(context.Background(), hosts[0], s)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Workflow.NumTasks() != length {
			b.Fatalf("workflow has %d tasks, want %d", plan.Workflow.NumTasks(), length)
		}
	}
}

// BenchmarkFigure4 — simulation, 100 task nodes, community size 2–15:
// time grows with path length and roughly linearly with host count.
func BenchmarkFigure4(b *testing.B) {
	for _, hosts := range []int{2, 3, 5, 10, 15} {
		for _, length := range []int{4, 8, 12} {
			b.Run(fmt.Sprintf("hosts=%d/pathlen=%d", hosts, length), func(b *testing.B) {
				benchPoint(b, evalgen.ExperimentConfig{
					Tasks: 100, Hosts: hosts, Seed: 1,
				}, length)
			})
		}
	}
}

// BenchmarkFigure5 — simulation, 2 hosts, supergraph size 25–500: the
// growth rate in path length increases with the number of task nodes.
func BenchmarkFigure5(b *testing.B) {
	for _, tasks := range []int{25, 50, 100, 250, 500} {
		for _, length := range []int{4, 8} {
			b.Run(fmt.Sprintf("tasks=%d/pathlen=%d", tasks, length), func(b *testing.B) {
				benchPoint(b, evalgen.ExperimentConfig{
					Tasks: tasks, Hosts: 2, Seed: 1,
				}, length)
			})
		}
	}
}

// BenchmarkFigure6 — the empirical configuration: 4 hosts on a modeled
// 802.11g ad hoc network (evalgen.Wireless80211g: 54 Mbit/s, 0.5 ms per hop
// plus up to 0.2 ms of jitter). One order of magnitude slower than the
// zero-latency simulation, matching the paper's Figure 5 → Figure 6 shift.
func BenchmarkFigure6(b *testing.B) {
	for _, tasks := range []int{25, 50, 100} {
		for _, length := range []int{4, 8} {
			b.Run(fmt.Sprintf("tasks=%d/pathlen=%d", tasks, length), func(b *testing.B) {
				benchPoint(b, evalgen.ExperimentConfig{
					Tasks: tasks, Hosts: 4, Seed: 1,
					LinkModel: evalgen.Wireless80211g(),
				}, length)
			})
		}
	}
}

// BenchmarkFigure6TCP — the same grid over real loopback TCP sockets
// (kernel networking instead of the latency model).
func BenchmarkFigure6TCP(b *testing.B) {
	for _, tasks := range []int{25, 100} {
		b.Run(fmt.Sprintf("tasks=%d/pathlen=4", tasks), func(b *testing.B) {
			benchPoint(b, evalgen.ExperimentConfig{
				Tasks: tasks, Hosts: 4, Seed: 1,
				Transport: community.TCP,
			}, 4)
		})
	}
}

// BenchmarkAblationCollection — incremental (on-demand) fragment
// collection vs gathering the community's entire knowledge up front
// (§3.1's simplifying assumption). Incremental transfers only the
// fragments the colored region needs, at one sweep per collection round;
// full collection transfers everything in one sweep. Both cold (benchPoint).
func BenchmarkAblationCollection(b *testing.B) {
	for _, incremental := range []bool{true, false} {
		name := "incremental"
		if !incremental {
			name = "full-collection"
		}
		b.Run(name, func(b *testing.B) {
			engCfg := evalgen.EvalEngineConfig()
			engCfg.Incremental = incremental
			benchPoint(b, evalgen.ExperimentConfig{
				Tasks: 250, Hosts: 5, Seed: 1, Engine: &engCfg,
			}, 8)
		})
	}
}

// BenchmarkAblationFeasibility — service-feasibility filtering during
// construction on vs off (extra query rounds vs risk of replanning).
func BenchmarkAblationFeasibility(b *testing.B) {
	for _, feasibility := range []bool{true, false} {
		name := "feasibility-on"
		if !feasibility {
			name = "feasibility-off"
		}
		b.Run(name, func(b *testing.B) {
			engCfg := evalgen.EvalEngineConfig()
			engCfg.Feasibility = feasibility
			benchPoint(b, evalgen.ExperimentConfig{
				Tasks: 100, Hosts: 5, Seed: 1, Engine: &engCfg,
			}, 8)
		})
	}
}

// BenchmarkAblationQueryPattern — pairwise (sequential) community queries
// vs broadcast (parallel). The paper remarks that even broadcast keeps the
// initiator's response processing linear in the community size; the
// wireless model makes the latency difference visible.
func BenchmarkAblationQueryPattern(b *testing.B) {
	for _, parallel := range []bool{false, true} {
		name := "pairwise"
		if parallel {
			name = "broadcast"
		}
		b.Run(name, func(b *testing.B) {
			engCfg := evalgen.EvalEngineConfig()
			engCfg.ParallelQuery = parallel
			benchPoint(b, evalgen.ExperimentConfig{
				Tasks: 100, Hosts: 10, Seed: 1, Engine: &engCfg,
				LinkModel: evalgen.Wireless80211g(),
			}, 8)
		})
	}
}

// BenchmarkBaselineStaticWorkflow — the CiAN-style baseline: the workflow
// is pre-specified (no knowledge discovery, no construction) and only
// distributed allocation runs. The gap to BenchmarkFigure4 at the same
// grid point is the price of dynamic construction.
func BenchmarkBaselineStaticWorkflow(b *testing.B) {
	for _, hosts := range []int{2, 5, 15} {
		b.Run(fmt.Sprintf("hosts=%d/pathlen=8", hosts), func(b *testing.B) {
			cfg := evalgen.ExperimentConfig{Tasks: 100, Hosts: hosts, Seed: 1}
			rng := rand.New(rand.NewSource(cfg.Seed))
			sc, err := evalgen.Generate(cfg.Tasks, rng)
			if err != nil {
				b.Fatal(err)
			}
			comm, hostAddrs, err := evalgen.BuildCommunity(sc, cfg, rng)
			if err != nil {
				b.Fatal(err)
			}
			defer comm.Close()
			initiator, ok := comm.Host(hostAddrs[0])
			if !ok {
				b.Fatal("no initiator")
			}
			// Pre-construct workflows outside the timed loop.
			frags, err := sc.Fragments()
			if err != nil {
				b.Fatal(err)
			}
			g, err := core.CollectAll(frags)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, ok := sc.SamplePath(8, rng)
				if !ok {
					b.Skip("no path of length 8")
				}
				res, err := core.Construct(g, s)
				if err != nil {
					b.Fatal(err)
				}
				comm.ResetSchedules()
				b.StartTimer()
				if _, err := initiator.Engine.AllocateWorkflow(context.Background(), res.Workflow, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentConstruct — N goroutines constructing against one
// shared immutable fragment store through a workspace pool (DESIGN.md §6).
// Aggregate throughput should scale with GOMAXPROCS because the store is
// never written and every goroutine owns its workspace's coloring scratch:
//
//	go test -bench=ConcurrentConstruct -cpu=1,2,4,8 .
func BenchmarkConcurrentConstruct(b *testing.B) {
	for _, tasks := range []int{100, 500} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			pool, specs, err := evalgen.ConcurrentConstructSetup(tasks, 256, 6, 1)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s := specs[next.Add(1)%uint64(len(specs))]
					if _, err := pool.Construct(ctx, s); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkConstructionAlgorithm — the pure coloring algorithm against a
// fully assembled supergraph, no network: the algorithmic floor under the
// figures above.
func BenchmarkConstructionAlgorithm(b *testing.B) {
	for _, tasks := range []int{25, 100, 500} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sc, err := evalgen.Generate(tasks, rng)
			if err != nil {
				b.Fatal(err)
			}
			frags, err := sc.Fragments()
			if err != nil {
				b.Fatal(err)
			}
			g, err := core.CollectAll(frags)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, ok := sc.SamplePath(6, rng)
				if !ok {
					b.Skip("no path of length 6")
				}
				b.StartTimer()
				if _, err := core.Construct(g, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentInitiate — K allocation sessions multiplexed over
// one initiator host on the modeled 802.11g medium (PR 4). The path is
// latency-dominated, so the concurrent rows should approach the
// inflight=1 batch time while serial grows linearly in K; ns/op is per
// batch of K Initiates. The CPU-bound view of the same contention is
// openwfbench's sim_contended workload.
func BenchmarkConcurrentInitiate(b *testing.B) {
	for _, row := range []struct {
		inflight int
		serial   bool
	}{
		{1, false}, {4, true}, {4, false},
	} {
		mode := "concurrent"
		if row.serial {
			mode = "serial"
		}
		b.Run(fmt.Sprintf("inflight=%d/mode=%s", row.inflight, mode), func(b *testing.B) {
			comm, hosts, pool, err := evalgen.ConcurrentInitiateSetup(5, 32)
			if err != nil {
				b.Fatal(err)
			}
			defer comm.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				comm.ResetSchedules()
				batch := make([]spec.Spec, row.inflight)
				for j := range batch {
					batch[j] = pool[(i*row.inflight+j)%len(pool)]
				}
				b.StartTimer()
				if row.serial {
					for _, s := range batch {
						if _, err := comm.Initiate(ctx, hosts[0], s); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					if _, err := comm.InitiateAll(ctx, hosts[0], batch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDiscoveryInitiate prices a host's memory of its community: one
// Initiate over a community where only 5 fixed providers are relevant and
// every other member is junk, in the three ways the initiator can know
// that. The roundtrips/op metric is the story: "cold" (the index is wiped
// before every Initiate, so each is its host's first) pays one describing
// sweep and grows O(hosts) — 21 and 111, every fragment query on the wire;
// "memory" (what earlier sessions were told, fragments included) costs a
// flat 6 = 5 calls for bids + 1 award to the replica that wins all six
// tasks, and no fragment query; "advertiser" (pushed sets, warmed at
// set-up) costs the same 6 between pushes and 6 more for the one session
// after the knowhow host's push, which drops what it had answered (26 / 11
// / 11 and 116 / 11 / 11 while each task was awarded on its own) — the
// advertiser's edge is the first session and the silent member, nothing
// per Initiate. openwfbench's tcp_wide workload carries the advertiser on
// real sockets.
func BenchmarkDiscoveryInitiate(b *testing.B) {
	for _, hosts := range []int{10, 100} {
		for _, mode := range []string{"cold", "memory", "advertiser"} {
			b.Run(fmt.Sprintf("hosts=%d/mode=%s", hosts, mode), func(b *testing.B) {
				ctx := context.Background()
				comm, initiator, s, err := evalgen.DiscoverySetup(ctx, hosts, 5, 6, mode == "advertiser", 1)
				if err != nil {
					b.Fatal(err)
				}
				defer comm.Close()
				h, _ := comm.Host(initiator)
				if mode == "memory" {
					if _, err := comm.Initiate(ctx, initiator, s); err != nil {
						b.Fatal(err)
					}
				}
				comm.Network().ResetCounters()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					comm.ResetSchedules()
					if mode == "cold" {
						h.Discovery().Reset()
					}
					b.StartTimer()
					plan, err := comm.Initiate(ctx, initiator, s)
					if err != nil {
						b.Fatal(err)
					}
					if plan.Workflow.NumTasks() != 6 {
						b.Fatalf("workflow has %d tasks", plan.Workflow.NumTasks())
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(comm.Network().Stats().Calls)/float64(b.N), "roundtrips/op")
			})
		}
	}
}
