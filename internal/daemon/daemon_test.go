package daemon_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf/internal/backlog"
	"openwf/internal/clock"
	"openwf/internal/community"
	"openwf/internal/daemon"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/testutil"
)

// mkFrag builds a one-task fragment in → out.
func mkFrag(t *testing.T, name, in, out string) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, model.Task{
		ID: model.TaskID(name), Mode: model.Conjunctive,
		Inputs:  []model.LabelID{model.LabelID(in)},
		Outputs: []model.LabelID{model.LabelID(out)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func chainSpecs(t *testing.T) []community.HostSpec {
	t.Helper()
	return []community.HostSpec{
		{ID: "init"},
		{ID: "peer",
			Fragments: []*model.Fragment{
				mkFrag(t, "t1", "a", "m"),
				mkFrag(t, "t2", "m", "g"),
			},
			Services: []service.Registration{
				{Descriptor: service.Descriptor{Task: "t1", Specialization: 0.5}},
				{Descriptor: service.Descriptor{Task: "t2", Specialization: 0.5}},
			},
		},
	}
}

func testEngineConfig() *engine.Config {
	cfg := engine.DefaultConfig()
	cfg.CallTimeout = time.Second
	cfg.StartDelay = 50 * time.Millisecond
	cfg.TaskWindow = 20 * time.Millisecond
	return &cfg
}

func chainRequest() daemon.Request {
	return daemon.Request{
		Spec: spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}),
	}
}

func startChainServer(t *testing.T, cfg daemon.Config) *daemon.Server {
	t.Helper()
	testutil.CheckGoroutines(t)
	srv, err := daemon.Start(community.Options{Engine: testEngineConfig()},
		"init", cfg, chainSpecs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestDoServesInitiate(t *testing.T) {
	srv := startChainServer(t, daemon.Config{Workers: 2})
	res, err := srv.Do(context.Background(), chainRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("serving error: %v", res.Err)
	}
	if res.Plan == nil || res.Plan.Workflow.NumTasks() != 2 {
		t.Fatalf("plan = %+v", res.Plan)
	}
	if res.Latency < 0 || res.Wait < 0 {
		t.Errorf("negative timings: wait %v latency %v", res.Wait, res.Latency)
	}
	snap := srv.Snapshot()
	if snap.Accepted != 1 || snap.Completed != 1 || snap.Rejected != 0 || snap.Aborted != 0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestDoManySequentialAndConcurrent(t *testing.T) {
	srv := startChainServer(t, daemon.Config{Workers: 4})
	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := srv.Do(context.Background(), chainRequest())
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = res.Err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	// Twelve requests against four workers and a 64-deep backlog are under
	// capacity: admission sheds nothing, and the latency window has filled.
	snap := srv.Snapshot()
	if snap.Completed != n || snap.Accepted != n || snap.Rejected != 0 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.LatencyP50 <= 0 || snap.LatencyP99 < snap.LatencyP50 {
		t.Errorf("latency quantiles p50=%v p99=%v", snap.LatencyP50, snap.LatencyP99)
	}
}

// TestAdmissionShedsTyped: a full class rejects with the typed error, every
// rejection the server counts reached its submitter, and what was admitted
// is still served — never an unbounded queue.
func TestAdmissionShedsTyped(t *testing.T) {
	srv := startChainServer(t, daemon.Config{Workers: 1, Backlog: 1})
	// Stuff the worker and the queue: the worker takes one request,
	// one more queues, the next must shed. A gate service isn't needed
	// — submission is much faster than allocation — but tolerate the
	// worker winning the race by submitting until a rejection shows.
	var rejected int64
	for i := 0; i < 64 && rejected == 0; i++ {
		err := srv.Submit(daemon.Request{Spec: chainRequest().Spec}, nil)
		var rej *backlog.RejectedError
		if errors.As(err, &rej) {
			rejected++
			if rej.Class != backlog.Low || rej.Capacity != 1 {
				t.Errorf("rejection = %+v", rej)
			}
		} else if err != nil {
			t.Fatalf("unexpected Submit error: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("no typed rejection after 64 submissions into a 1-deep backlog")
	}
	if got := srv.Snapshot().Rejected; got != rejected {
		t.Errorf("server counted %d rejections, submitters saw %d", got, rejected)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if snap := srv.Snapshot(); snap.Completed == 0 || snap.Accepted != snap.Completed+snap.Aborted || snap.Backlog != 0 {
		t.Errorf("overloaded server drained to %+v", snap)
	}
}

// TestDrainFinishesAdmittedWork: Drain stops admission, but everything
// admitted completes and is counted.
func TestDrainFinishesAdmittedWork(t *testing.T) {
	srv := startChainServer(t, daemon.Config{Workers: 2, Backlog: 32})
	const n = 6
	done := make(chan *daemon.Result, n)
	for i := 0; i < n; i++ {
		if err := srv.Submit(chainRequest(), func(r *daemon.Result) { done <- r }); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Admission is closed now.
	if err := srv.Submit(chainRequest(), nil); !errors.Is(err, daemon.ErrDraining) {
		t.Errorf("Submit after Drain = %v, want ErrDraining", err)
	}
	if _, err := srv.Do(context.Background(), chainRequest()); !errors.Is(err, daemon.ErrDraining) {
		t.Errorf("Do after Drain = %v, want ErrDraining", err)
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-done:
			if r.Err != nil {
				t.Errorf("drained request errored: %v", r.Err)
			}
		case <-time.After(time.Minute):
			t.Fatal("request never completed during drain")
		}
	}
	snap := srv.Snapshot()
	if snap.Completed != n || snap.Backlog != 0 || snap.Accepted != snap.Completed+snap.Aborted {
		t.Errorf("post-drain snapshot = %+v", snap)
	}
	if srv.Community().TotalHolds() != 0 {
		t.Errorf("leaked holds after drain: %d", srv.Community().TotalHolds())
	}
}

// TestCloseAbortsQueued: Close fails queued-but-unserved requests with
// context.Canceled and counts them aborted — nothing waits forever.
func TestCloseAbortsQueued(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := daemon.Start(community.Options{Engine: testEngineConfig()},
		"init", daemon.Config{Workers: 1, Backlog: 16}, chainSpecs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	done := make(chan *daemon.Result, n)
	for i := 0; i < n; i++ {
		if err := srv.Submit(chainRequest(), func(r *daemon.Result) { done <- r }); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var canceled int
	for i := 0; i < n; i++ {
		select {
		case r := <-done:
			if errors.Is(r.Err, context.Canceled) {
				canceled++
			}
		case <-time.After(time.Minute):
			t.Fatal("request callback never fired after Close")
		}
	}
	snap := srv.Snapshot()
	if snap.Completed+snap.Aborted != n {
		t.Errorf("completed %d + aborted %d != submitted %d", snap.Completed, snap.Aborted, n)
	}
	if canceled == 0 && snap.Aborted == 0 {
		t.Log("all requests finished before Close — abort path not exercised this run")
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestUnknownInitiatorRejected(t *testing.T) {
	testutil.CheckGoroutines(t)
	if _, err := daemon.Start(community.Options{Engine: testEngineConfig()}, "ghost", daemon.Config{}, chainSpecs(t)...); err == nil {
		t.Fatal("unknown initiator accepted")
	}
}

// TestMetricsExposition: the registry renders the serving signals the
// ISSUE names, including the transport scrape and the summary quantiles.
func TestMetricsExposition(t *testing.T) {
	srv := startChainServer(t, daemon.Config{Workers: 2})
	if res, err := srv.Do(context.Background(), chainRequest()); err != nil || res.Err != nil {
		t.Fatalf("Do = %v / %v", err, res.Err)
	}
	var sb strings.Builder
	if err := srv.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"openwf_initiates_accepted_total 1",
		"openwf_initiates_completed_total 1",
		"openwf_initiates_rejected_total 0",
		"openwf_initiates_aborted_total 0",
		"openwf_repairs_total 0",
		"openwf_replans_total 0",
		"openwf_backlog_depth_high 0",
		"openwf_backlog_depth_normal 0",
		"openwf_backlog_depth_low 0",
		"openwf_sessions_active 0",
		"openwf_workers 2",
		`openwf_initiate_latency_seconds{quantile="0.999"}`,
		"openwf_initiate_latency_seconds_count 1",
		"openwf_backlog_wait_seconds_count 1",
		"openwf_transport_calls_total",
		"openwf_transport_frames_total",
		"openwf_holds 0",
		"openwf_commitments 2", // the plan was not executed: its two awards stand
		"openwf_exec_runs 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// One Initiate must have moved the transport counters.
	if strings.Contains(out, "openwf_transport_envelopes_total 0\n") {
		t.Error("transport envelope scrape stuck at zero after an Initiate")
	}
}

// TestPriorityClassesServedHighFirst: queued High work overtakes queued
// Low work when a single worker frees up.
func TestPriorityClassesServedHighFirst(t *testing.T) {
	srv := startChainServer(t, daemon.Config{Workers: 1, Backlog: 8})
	var mu sync.Mutex
	var order []backlog.Class
	done := make(chan struct{}, 8)
	record := func(r *daemon.Result) {
		mu.Lock()
		order = append(order, r.Class)
		mu.Unlock()
		done <- struct{}{}
	}
	// Keep the lone worker busy so subsequent submissions queue.
	if err := srv.Submit(chainRequest(), record); err != nil {
		t.Fatal(err)
	}
	low := daemon.Request{Spec: chainRequest().Spec, Class: backlog.Low}
	high := daemon.Request{Spec: chainRequest().Spec, Class: backlog.High}
	if err := srv.Submit(low, record); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(high, record); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatal("requests never completed")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// The first request raced the submissions; among the two that
	// queued, High must come before Low unless the worker drained the
	// queue faster than we filled it (then order reflects submission).
	var hi, lo = -1, -1
	for i, c := range order {
		if c == backlog.High && hi < 0 {
			hi = i
		}
		if c == backlog.Low && lo < 0 {
			lo = i
		}
	}
	if hi < 0 || lo < 0 {
		t.Fatalf("classes missing from %v", order)
	}
	if hi > lo && lo > 0 {
		// Low served before High while both were queued behind the
		// first request: priority inversion.
		t.Errorf("service order %v: high-priority work did not jump the queue", order)
	}
}

// soakT0 anchors the soak test's simulated clock.
var soakT0 = time.Date(2026, 6, 13, 9, 0, 0, 0, time.UTC)

// TestSoakLeavesNoResidue is the long-lived daemon's zero-residue gate: two
// thousand workflows allocated and executed on the simulated clock, in four
// quarters. Whenever the daemon falls idle the hosts must hold nothing —
// no commitment, run or hold, and no timer but the one provider's sweep —
// although no lease has had time to lapse, and the live heap after the last
// quarter must be what it was after the first.
func TestSoakLeavesNoResidue(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	testutil.CheckGoroutines(t)
	const quarters, perQuarter, clients = 4, 500, 4
	sim := clock.NewSim(soakT0)
	cfg := testEngineConfig()
	// No lease refresher: a workflow here is over in a tenth of a virtual
	// second, and each refresher would park a one-minute timer on the
	// clock that outlives it — noise in the timer count below.
	cfg.LeaseRefreshInterval = -1
	// Four sessions at a time want the one provider's calendar: give a
	// session that lost its windows more later bands to retry into.
	cfg.WindowRetries = 8
	srv, err := daemon.Start(community.Options{Clock: sim, Engine: cfg},
		"init", daemon.Config{
			Workers: clients, Execute: true,
			Triggers: map[model.LabelID][]byte{"a": []byte("go")},
		}, chainSpecs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// Virtual time runs from the background, but only while the community
	// is quiet — no allocation session in flight (allocation needs no time
	// to pass: every member answers, and a clock racing ahead of it would
	// open the execution windows before the calls for bids arrive), no
	// message on a link or in a handler. Then everybody is waiting for the
	// clock — executors for their windows, holds for their deadlines — and
	// the soak runs about as fast as the machine computes.
	comm := srv.Community()
	initiator, _ := comm.Host("init")
	peer, _ := comm.Host("peer")
	quiet := func() bool {
		net := comm.Network()
		return initiator.Engine.InFlight() == 0 &&
			net.Messages() == net.Delivered()+net.Stats().FramesDropped &&
			initiator.ActiveSessions() == 0 && peer.ActiveSessions() == 0
	}
	stop := make(chan struct{})
	var driver sync.WaitGroup
	var paused atomic.Bool
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				switch {
				case paused.Load():
					time.Sleep(100 * time.Microsecond)
				case quiet():
					// Paced: "quiet" cannot see a worker computing between
					// two sends, and an unpaced clock would run a lease out
					// in the microseconds between its Initiate and Execute.
					sim.Advance(25 * time.Millisecond)
					time.Sleep(20 * time.Microsecond)
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	defer func() {
		close(stop)
		driver.Wait()
	}()

	var heap [quarters]uint64
	for q := range heap {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perQuarter/clients; i++ {
					res, err := srv.Do(context.Background(), chainRequest())
					if err != nil || res.Err != nil || !res.Report.Completed {
						t.Errorf("quarter %d: Do = %v, result %+v", q, err, res)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// Idle, with the clock stopped: no lease can lapse now, so whatever
		// the hosts still hold once the last releases have landed is
		// residue.
		paused.Store(true)
		deadline := time.Now().Add(5 * time.Second)
		for snap := srv.Snapshot(); snap.Commitments+snap.Runs > 0; snap = srv.Snapshot() {
			if time.Now().After(deadline) {
				t.Fatalf("quarter %d left %d commitments and %d runs behind %d workflows", q, snap.Commitments, snap.Runs, snap.Completed)
			}
			time.Sleep(time.Millisecond)
		}
		// Two virtual seconds on, the last bid windows have run out (an
		// answered call stopped its reply bound as it returned) and the
		// sweep has looked at an empty calendar. One
		// timer may stay: a sweep re-armed at a lease while a workflow was
		// still running waits that lease out — once per bidding host,
		// however many workflows came and went.
		sim.Advance(2 * time.Second)
		if holds, timers := srv.Snapshot().Holds, sim.PendingWaiters(); holds != 0 || timers > 1 {
			t.Fatalf("quarter %d left %d holds and %d pending timers", q, holds, timers)
		}
		// Still paused: nothing allocates while the collector runs, so two
		// cycles leave exactly what is reachable.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[q] = ms.HeapAlloc
		paused.Store(false)
	}
	t.Logf("live heap after each quarter: %d KiB; %v of virtual time",
		[]uint64{heap[0] >> 10, heap[1] >> 10, heap[2] >> 10, heap[3] >> 10}, sim.Now().Sub(soakT0))
	// What may still grow is bounded and not per workflow: the two latency
	// histograms fill their 4096-sample rings (64 KiB between them) and the
	// runtime keeps the descriptors of goroutines that have exited. A
	// workflow's own state — at the parent a commitment, a run, its labels
	// and two timers per task, well over a KiB — would add MiB by now.
	if heap[quarters-1] > heap[0]+128<<10 {
		t.Errorf("live heap grew from %d KiB after the first quarter to %d KiB after the last", heap[0]>>10, heap[quarters-1]>>10)
	}
}
