// Command benchjson runs the pinned performance grid points with
// testing.Benchmark and emits them as JSON, seeding the repo's perf
// trajectory: each PR that touches a hot path records its numbers
// (ns/op, B/op, allocs/op) in a BENCH_PR<n>.json at the repo root, so
// regressions are visible in review without re-running the full sweep.
//
//	go run ./cmd/benchjson -o BENCH_PR9.json
//
// The grid points mirror the root bench_test.go benchmarks that the
// paper's evaluation (§5) pins: the pure construction algorithm at
// supergraph sizes 25–500, the per-envelope marshal cost of the binary
// wire codec (PR 3; the gob oracle retired in PR 6), the broadcast
// knowhow-query path over the modeled 802.11g medium with the transport's
// Call round-trip count as its own column (PR 5), the cached workflow
// accessors (PR 2), the concurrent-construction grid (goroutines ×
// supergraph size) against a shared fragment store, the
// concurrent-allocation grid (PR 4: K in-flight Initiates multiplexed
// over one host, serial vs concurrent), the repair-vs-replan grid
// (PR 6: recovering a mid-execution workflow from a single provider
// death by incremental plan repair versus a full replan from scratch),
// the sustained-serving rows (PR 7: a daemon under closed-loop load
// for a virtual minute, reported as throughput and latency quantiles in
// the report's "sustained" section; cmd/loadgen runs the wider grid),
// and the capability-discovery grid (PR 9: one Initiate over 10–1000
// hosts with a fixed 5-provider relevant set, index-routed vs broadcast
// — the RoundTrips column shows indexed rows flat in community size
// while broadcast grows O(hosts)).
//
// PR 10 adds the contention dimension: the concurrency grids
// (ConcurrentConstruct, ConcurrentInitiate, Discovery) sweep GOMAXPROCS
// via the -cpu flag, every row stamps its effective parallelism into the
// JSON, and the concurrency grids report a mutex-wait column sampled
// from runtime/metrics (/sync/mutex/wait/total:seconds) — nanoseconds
// all goroutines spent blocked on contended mutexes per operation, which
// makes lock contention visible even on low-core CI runners where ns/op
// cannot parallelize. -cpuprofile and -mutexprofile write pprof profiles
// covering the whole grid for deeper digs (see CONTRIBUTING.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf/internal/community"
	"openwf/internal/core"
	"openwf/internal/engine"
	"openwf/internal/evalgen"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// result is one benchmark grid point.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// RoundTrips is the inmem transport's Call round-trip count per
	// operation (requests only — each opens one request/reply exchange),
	// reported by the distributed grid points via b.ReportMetric. The
	// batched CFB protocol (PR 5) is measured directly on this column.
	RoundTrips float64 `json:"round_trips_per_op,omitempty"`
	// GOMAXPROCS is the effective parallelism the row ran under (pinned
	// by the run helper from the -cpu sweep), not the process default.
	GOMAXPROCS int `json:"gomaxprocs"`
	// MutexWaitNs is the nanoseconds all goroutines spent blocked on
	// contended mutexes per operation over the row's timed region,
	// sampled from runtime/metrics (/sync/mutex/wait/total:seconds).
	// Reported by the concurrency grids; the column where lock contention
	// shows up even when a low-core runner cannot show wall-time scaling.
	MutexWaitNs float64 `json:"mutex_wait_ns_per_op,omitempty"`
}

// report is the emitted file.
type report struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUSweep is the -cpu flag's GOMAXPROCS grid; the concurrency rows
	// run once per entry.
	CPUSweep   []int    `json:"cpu_sweep"`
	Benchmarks []result `json:"benchmarks"`
	// Sustained holds the PR 7 daemon serving rows: closed-loop
	// sustained load on the virtual clock, measured in throughput and
	// latency quantiles rather than ns/op (see evalgen.SustainedLoad and
	// cmd/loadgen for the full grid).
	Sustained []evalgen.SustainedResult `json:"sustained,omitempty"`
}

// chainWorkflow builds a valid n-task chain workflow for the cached
// accessor grid point.
func chainWorkflow(b *testing.B, n int) *model.Workflow {
	b.Helper()
	g := model.NewGraph()
	for i := 0; i < n; i++ {
		t := model.Task{
			ID:      model.TaskID(fmt.Sprintf("t%04d", i)),
			Mode:    model.Conjunctive,
			Inputs:  []model.LabelID{model.LabelID(fmt.Sprintf("l%04d", i))},
			Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("l%04d", i+1))},
		}
		if err := g.AddTask(t); err != nil {
			b.Fatal(err)
		}
	}
	w, err := model.NewWorkflow(g)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// queryEnvelope is the broadcast-hot knowhow query shape measured by the
// marshal grid (mirrors internal/proto's benchEnvelope).
func queryEnvelope() proto.Envelope {
	return proto.Envelope{
		From: "host-a", To: "host-b", ReqID: 42, Workflow: "wf-1",
		Body: proto.FragmentQuery{Labels: []model.LabelID{
			"breakfast ingredients", "lunch ingredients", "omelet bar setup",
		}},
	}
}

// bidEnvelope is the auction-hot reply shape.
func bidEnvelope() proto.Envelope {
	return proto.Envelope{
		From: "host-b", To: "host-a", ReqID: 43, Workflow: "wf-1",
		Body: proto.Bid{
			Task: "cook omelets", ServicesOffered: 3,
			Specialization: 0.75, Deadline: time.Unix(1700000000, 0),
		},
	}
}

// repairCommunity builds the repair-vs-replan fixture: host00 initiates
// and knows the whole chain; every provider offers every service, so any
// survivor can absorb a dead provider's tasks.
func repairCommunity(b *testing.B, hosts, chain int, cfg *engine.Config) (*community.Community, spec.Spec) {
	b.Helper()
	var frags []*model.Fragment
	var regs []service.Registration
	for i := 0; i < chain; i++ {
		task := model.Task{
			ID:      model.TaskID(fmt.Sprintf("r-t%02d", i)),
			Mode:    model.Conjunctive,
			Inputs:  []model.LabelID{model.LabelID(fmt.Sprintf("r-l%02d", i))},
			Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("r-l%02d", i+1))},
		}
		f, err := model.NewFragment(fmt.Sprintf("know-r%02d", i), task)
		if err != nil {
			b.Fatal(err)
		}
		frags = append(frags, f)
		regs = append(regs, service.Registration{
			Descriptor: service.Descriptor{Task: task.ID, Duration: 10 * time.Millisecond, Specialization: 0.5},
		})
	}
	specs := make([]community.HostSpec, hosts)
	for h := 0; h < hosts; h++ {
		specs[h] = community.HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
		if h > 0 {
			specs[h].Services = regs
		}
	}
	specs[0].Fragments = frags
	comm, err := community.New(community.Options{Engine: cfg, Seed: 1}, specs...)
	if err != nil {
		b.Fatal(err)
	}
	goal := model.LabelID(fmt.Sprintf("r-l%02d", chain))
	return comm, spec.Must([]model.LabelID{"r-l00"}, []model.LabelID{goal})
}

// mutexWaitSeconds reads the runtime's cumulative mutex wait: total
// seconds all goroutines have spent blocked on contended sync.Mutex /
// sync.RWMutex acquisitions since process start (always-on, no profile
// rate needed).
func mutexWaitSeconds() float64 {
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		return sample[0].Value.Float64()
	}
	return 0
}

// sampleMutexWait starts a mutex-wait sample over a benchmark's timed
// region; the returned func reports the per-op delta. Call it after
// setup (next to ResetTimer) and defer the stop — the testing package
// keeps the last invocation's Extra, which is also the invocation whose
// b.N set the recorded ns/op, so the columns describe the same run.
func sampleMutexWait(b *testing.B) func() {
	start := mutexWaitSeconds()
	return func() {
		delta := mutexWaitSeconds() - start
		b.ReportMetric(delta*1e9/float64(b.N), "mutexwait-ns/op")
	}
}

// parseCPUList parses the -cpu flag ("1,2,4") into the GOMAXPROCS sweep.
func parseCPUList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpu entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -cpu list")
	}
	return out, nil
}

func main() {
	out := flag.String("o", "BENCH_PR10.json", "output file (- for stdout)")
	cpuFlag := flag.String("cpu", "1,2,4", "comma-separated GOMAXPROCS sweep for the concurrency grids")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the whole grid to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile covering the whole grid to this file")
	benchFlag := flag.String("bench", "", "run only rows whose name matches this regexp (profiling workflow)")
	flag.Parse()

	cpus, err := parseCPUList(*cpuFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var benchRe *regexp.Regexp
	if *benchFlag != "" {
		if benchRe, err = regexp.Compile(*benchFlag); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad -bench regexp: %v\n", err)
			os.Exit(1)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			}
		}()
	}

	var results []result
	// runAt pins GOMAXPROCS for the row's whole lifetime (setup included)
	// and stamps the effective parallelism into the emitted row — the one
	// place every grid's parallelism is controlled, replacing the per-row
	// ad-hoc pinning earlier BENCH files used.
	runAt := func(name string, cpu int, fn func(b *testing.B)) {
		if benchRe != nil && !benchRe.MatchString(name) {
			return
		}
		prev := runtime.GOMAXPROCS(cpu)
		r := testing.Benchmark(fn)
		runtime.GOMAXPROCS(prev)
		res := result{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			RoundTrips:  r.Extra["roundtrips/op"],
			GOMAXPROCS:  cpu,
			MutexWaitNs: r.Extra["mutexwait-ns/op"],
		}
		results = append(results, res)
		fmt.Fprintf(os.Stderr, "%-60s %10d iters %14.0f ns/op %10d B/op %8d allocs/op %8.0f rt/op %12.0f mutexwait-ns/op\n",
			name, r.N, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.RoundTrips, res.MutexWaitNs)
	}
	// run is the single-threaded default: the non-concurrency rows stay
	// pinned at GOMAXPROCS=1 for comparability with the earlier 1-CPU
	// BENCH files.
	run := func(name string, fn func(b *testing.B)) { runAt(name, 1, fn) }

	// The pure coloring algorithm against a fully assembled supergraph
	// (BenchmarkConstructionAlgorithm's grid).
	for _, tasks := range []int{25, 100, 500} {
		tasks := tasks
		run(fmt.Sprintf("ConstructionAlgorithm/tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
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

	// O(1) reset: must stay flat in graph size.
	for _, tasks := range []int{100, 500} {
		tasks := tasks
		run(fmt.Sprintf("ResetColoring/tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
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
				g.ResetColoring()
			}
		})
	}

	// Concurrent construction against a shared immutable fragment store
	// (the PR 2 Planner architecture): GOMAXPROCS × supergraph size.
	// ns/op is wall time per construction across all goroutines; on a
	// multi-core host it drops as the sweep widens (the store is
	// read-only and every goroutine owns its workspace scratch), while
	// on a single-core host it stays flat apart from scheduling
	// overhead. RunParallel spawns GOMAXPROCS goroutines under
	// SetParallelism(1), so the runAt pin is also the row's goroutine
	// count (the unification of the old per-row goroutines pinning).
	for _, tasks := range []int{100, 500} {
		for _, cpu := range cpus {
			tasks, cpu := tasks, cpu
			runAt(fmt.Sprintf("ConcurrentConstruct/cpu=%d/tasks=%d", cpu, tasks), cpu, func(b *testing.B) {
				b.ReportAllocs()
				pool, specs, err := evalgen.ConcurrentConstructSetup(tasks, 256, 6, 1)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				var next atomic.Uint64
				b.SetParallelism(1)
				b.ResetTimer()
				stop := sampleMutexWait(b)
				defer stop()
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

	// Cached workflow accessors (PR 2): TopoOrder on a 500-task chain
	// was ~384µs/op when recomputed per call, ~3µs/op served from the
	// construction-time cache.
	run("WorkflowTopoOrder/tasks=500", func(b *testing.B) {
		b.ReportAllocs()
		w := chainWorkflow(b, 500)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := w.TopoOrder(); len(got) != 500 {
				b.Fatalf("len = %d", len(got))
			}
		}
	})

	// Per-envelope marshal cost on the transports' pooled path (the
	// active wire codec; kept name-compatible with earlier BENCH files).
	run("EncodeToPooled", func(b *testing.B) {
		b.ReportAllocs()
		env := queryEnvelope()
		pool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := pool.Get().(*bytes.Buffer)
			buf.Reset()
			if err := proto.EncodeTo(buf, env); err != nil {
				b.Fatal(err)
			}
			pool.Put(buf)
		}
	})

	// Marshal grid (PR 3, gob oracle retired in PR 6): full encode+decode
	// per envelope for the two broadcast-hot message shapes through the
	// binary wire codec. Row names stay comparable with earlier BENCH
	// files' codec=binary rows.
	for _, shape := range []struct {
		name string
		env  proto.Envelope
	}{
		{"FragmentQuery", queryEnvelope()},
		{"Bid", bidEnvelope()},
	} {
		shape := shape
		run(fmt.Sprintf("Marshal/%s/codec=binary", shape.name), func(b *testing.B) {
			b.ReportAllocs()
			pool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf := pool.Get().(*bytes.Buffer)
				buf.Reset()
				if err := proto.EncodeTo(buf, shape.env); err != nil {
					b.Fatal(err)
				}
				if _, err := proto.Decode(buf.Bytes()); err != nil {
					b.Fatal(err)
				}
				pool.Put(buf)
			}
		})
	}

	// Broadcast knowhow-query grid (PR 3, re-pinned by PR 5): a full
	// Initiate on the modeled 802.11g medium with broadcast (parallel)
	// community queries — the distributed path where the medium
	// dominates. All rows run the batched CFB protocol (the per-task
	// oracle retired in PR 6); the RoundTrips column is the inmem
	// Stats().Calls per Initiate.
	for _, hosts := range []int{5, 10} {
		hosts := hosts
		run(fmt.Sprintf("BroadcastQuery/hosts=%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			engCfg := evalgen.EvalEngineConfig()
			engCfg.ParallelQuery = true
			rng := rand.New(rand.NewSource(1))
			sc, err := evalgen.Generate(100, rng)
			if err != nil {
				b.Fatal(err)
			}
			comm, hostAddrs, err := evalgen.BuildCommunity(sc, evalgen.ExperimentConfig{
				Tasks: 100, Hosts: hosts, Seed: 1,
				LinkModel: evalgen.Wireless80211g(),
				Engine:    &engCfg,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			defer comm.Close()
			comm.Network().ResetCounters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, ok := sc.SamplePath(8, rng)
				if !ok {
					b.Skip("no path of length 8")
				}
				comm.ResetSchedules()
				b.StartTimer()
				plan, err := comm.Initiate(context.Background(), hostAddrs[0], s)
				if err != nil {
					b.Fatal(err)
				}
				if plan.Workflow.NumTasks() != 8 {
					b.Fatalf("workflow has %d tasks", plan.Workflow.NumTasks())
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(comm.Network().Stats().Calls)/float64(b.N), "roundtrips/op")
		})
	}

	// Concurrent allocation sessions (PR 4): K Initiates multiplexed
	// over one initiator host on the modeled 802.11g medium. The path is
	// latency-dominated (pairwise solicitation, query rounds), so
	// overlapping K sessions' waits is where the throughput comes from:
	// mode=serial runs the batch back to back, mode=concurrent
	// multiplexes it through Community.InitiateAll and the hosts'
	// session dispatchers. ns/op is per batch of K, so the acceptance
	// bar — ≥2x aggregate throughput at 4 in-flight — reads directly as
	// serial/inflight=4 ns/op ≥ 2 × concurrent/inflight=4 ns/op.
	// The grid sweeps GOMAXPROCS (PR 10): the same batch of sessions at
	// every -cpu point.
	for _, cpu := range cpus {
		for _, row := range []struct {
			inflight int
			serial   bool
		}{
			{1, false}, {2, false}, {4, true}, {4, false}, {8, false},
		} {
			cpu, row := cpu, row
			mode := "concurrent"
			if row.serial {
				mode = "serial"
			}
			runAt(fmt.Sprintf("ConcurrentInitiate/hosts=5/inflight=%d/mode=%s/cpu=%d", row.inflight, mode, cpu), cpu, func(b *testing.B) {
				b.ReportAllocs()
				comm, hostAddrs, pool, err := evalgen.ConcurrentInitiateSetup(5, 32)
				if err != nil {
					b.Fatal(err)
				}
				defer comm.Close()
				ctx := context.Background()
				b.ResetTimer()
				stop := sampleMutexWait(b)
				defer stop()
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
							if _, err := comm.Initiate(ctx, hostAddrs[0], s); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						if _, err := comm.InitiateAll(ctx, hostAddrs[0], batch); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}

	// Repair-vs-replan grid (PR 6): a provider dies under a mid-execution
	// workflow. mode=repair measures the engine's recovery path end to
	// end — lease-refresh failure detection, re-auctioning the dead
	// host's tasks among the survivors, redistributing the repaired
	// segments — timed from the crash to the Repaired event. mode=replan
	// measures the baseline strategy: discard the plan and run a fresh
	// Initiate around the dead member, timed from the re-Initiate alone
	// (detection latency excluded, which biases the comparison *toward*
	// replan — repair must win anyway). Both modes run on the real clock
	// over the instantaneous in-memory network, so every non-trivial cost
	// is either a dead-host call timeout or protocol work; RoundTrips
	// counts the Calls each recovery strategy spends.
	for _, mode := range []string{"repair", "replan"} {
		mode := mode
		run(fmt.Sprintf("RepairVsReplan/hosts=6/chain=8/mode=%s", mode), func(b *testing.B) {
			b.ReportAllocs()
			const hosts, chain = 6, 8
			cfg := engine.DefaultConfig()
			cfg.StartDelay = time.Hour // windows far out: allocation machinery only, no service runs
			cfg.TaskWindow = time.Minute
			cfg.CallTimeout = 100 * time.Millisecond // a dead host costs one bounded timeout per call
			cfg.LeaseRefreshInterval = 20 * time.Millisecond
			repaired := make(chan struct{}, 1)
			cfg.Observer.Repaired = func(string, []proto.Addr, []model.TaskID) {
				select {
				case repaired <- struct{}{}:
				default:
				}
			}
			comm, s := repairCommunity(b, hosts, chain, &cfg)
			defer comm.Close()
			ctx := context.Background()
			var roundTrips int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				comm.ResetSchedules()
				plan, err := comm.Initiate(ctx, "host00", s)
				if err != nil {
					b.Fatal(err)
				}
				victim := plan.Allocations[model.TaskID("r-t00")]
				if mode == "repair" {
					ectx, ecancel := context.WithCancel(ctx)
					done := make(chan error, 1)
					go func() {
						_, err := comm.Execute(ectx, "host00", plan, nil)
						done <- err
					}()
					// Wall time for segment distribution; the refresher is
					// ticking once Execute has handed out the plan.
					time.Sleep(20 * time.Millisecond)
					select {
					case <-repaired: // drop any stale signal
					default:
					}
					comm.Network().ResetCounters()
					b.StartTimer()
					if err := comm.CrashHost(victim); err != nil {
						b.Fatal(err)
					}
					select {
					case <-repaired:
					case err := <-done:
						b.Fatalf("execution ended before repair: %v", err)
					case <-time.After(10 * time.Second):
						b.Fatal("repair did not complete within 10s")
					}
					b.StopTimer()
					roundTrips += comm.Network().Stats().Calls
					ecancel()
					<-done
				} else {
					if err := comm.CrashHost(victim); err != nil {
						b.Fatal(err)
					}
					comm.ResetSchedules() // the discarded plan's slots are released
					comm.Network().ResetCounters()
					b.StartTimer()
					plan2, err := comm.Initiate(ctx, "host00", s)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if len(plan2.Allocations) != chain {
						b.Fatalf("replan allocated %d of %d tasks", len(plan2.Allocations), chain)
					}
					roundTrips += comm.Network().Stats().Calls
				}
				if err := comm.RestartHost(victim); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(roundTrips)/float64(b.N), "roundtrips/op")
		})
	}

	// Capability-discovery grid (PR 9): one Initiate over a community
	// where only 5 fixed providers are relevant and every other member is
	// junk, index-routed vs broadcast. The RoundTrips column is the bar:
	// indexed Calls/Initiate must stay within 2x of the 10-host figure all
	// the way to 1000 hosts, while broadcast grows O(hosts).
	// The full host sweep runs at GOMAXPROCS=1 for comparability with the
	// PR 9 rows; the multi-core -cpu points rerun the hosts=300 pair,
	// where the PR 9 profile showed the network's global send lock was
	// the simulator (the mutex-wait column is the regression guard).
	for _, cpu := range cpus {
		hostGrid := []int{300}
		if cpu == 1 {
			hostGrid = []int{10, 100, 300, 1000}
		}
		for _, hosts := range hostGrid {
			for _, mode := range []string{"indexed", "broadcast"} {
				cpu, hosts, mode := cpu, hosts, mode
				runAt(fmt.Sprintf("Discovery/hosts=%d/providers=5/mode=%s/cpu=%d", hosts, mode, cpu), cpu, func(b *testing.B) {
					b.ReportAllocs()
					ctx := context.Background()
					comm, initiator, s, err := evalgen.DiscoverySetup(ctx, hosts, 5, 6, mode == "indexed", 1)
					if err != nil {
						b.Fatal(err)
					}
					defer comm.Close()
					comm.Network().ResetCounters()
					b.ResetTimer()
					stop := sampleMutexWait(b)
					defer stop()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						comm.ResetSchedules()
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

	// The sustained serving rows (PR 7): a daemon on the virtual clock
	// under closed-loop load for a virtual minute — one under-capacity
	// row (no shedding expected) and one overload row (admission control
	// is the story). These are duration runs, not per-op benchmarks, so
	// they land in their own report section.
	var sustained []evalgen.SustainedResult
	for _, row := range []evalgen.SustainedConfig{
		{Clients: 8, Seed: 1},
		{Clients: 16, Workers: 2, Backlog: 2, Seed: 2},
	} {
		sr, err := evalgen.SustainedLoad(context.Background(), row)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: sustained: %v\n", err)
			os.Exit(1)
		}
		sustained = append(sustained, *sr)
		fmt.Fprintf(os.Stderr,
			"SustainedLoad/clients=%d/workers=%d/backlog=%d  %6.2f initiates/s  p50 %6.2fs p99 %6.2fs p999 %6.2fs  rejected %d\n",
			sr.Clients, sr.Workers, sr.Backlog, sr.Throughput,
			sr.LatencyP50, sr.LatencyP99, sr.LatencyP999, sr.Rejected)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		CPUSweep:   cpus,
		Benchmarks: results,
		Sustained:  sustained,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
