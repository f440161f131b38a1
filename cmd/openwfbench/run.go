package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"openwf/internal/auction"
	"openwf/internal/backlog"
	"openwf/internal/community"
	"openwf/internal/daemon"
	"openwf/internal/discovery"
	"openwf/internal/engine"
	"openwf/internal/evalgen"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/transport"
)

// workload is one named set of inputs and the way clients drive it.
type workload struct {
	name string
	why  string
	// serial workloads are driven by one closed-loop client on one
	// processor, the others by K = 2 × nproc clients on all of them. One
	// session is one thread of control; spread over two virtual CPUs its
	// hand-offs between goroutines become thread wake-ups, whose latency on
	// a shared machine swung sim_serial between 2.3 and 4.0 ms per Initiate
	// from one quarter hour to the next, while on one processor it holds
	// within a few percent.
	serial bool
	build  func(seed int64, k int, hk hooks) (*fixture, error)
}

func (w *workload) clients(k int) int {
	if w.serial {
		return 1
	}
	return k
}

// procs is the GOMAXPROCS the workload runs at.
func (w *workload) procs() int {
	if w.serial {
		return 1
	}
	return runtime.NumCPU()
}

var workloads = []*workload{
	{
		name:   "sim_serial",
		why:    "one session, 15 sole-provider hosts, sequential queries on zero-latency inmem: every layer's compute on one critical path, nothing contends",
		serial: true, build: buildSimSerial,
	},
	{
		name:  "sim_contended",
		why:   "K sessions through the daemon over 3 replicated providers, CPU-bound: calendars, dispatcher, link shards and backlog are shared",
		build: buildSimContended,
	},
	{
		name:  "tcp_wide",
		why:   "32 hosts on loopback TCP with discovery refreshing: the only workload where tcpnet, sockets, the coalescer and index routing do the work",
		build: buildTCPWide,
	},
	{
		name:   "wireless_execute",
		why:    "4 hosts on the modelled 802.11g link, Initiate then Execute with 4 KiB labels: latency is round trips x link wait, so compute changes must not move it",
		serial: true,
		build: func(seed int64, _ int, hk hooks) (*fixture, error) {
			return buildChain(seed, evalgen.Wireless80211g(), hk)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opTimeout bounds one operation; nothing a workload does comes near it.
const opTimeout = 30 * time.Second

// opSample is what one client operation measured.
type opSample struct {
	err    error
	initMs float64
	// executed marks an operation that ran Execute; execMs is its time.
	executed bool
	execMs   float64
	// released marks a plan released by per-task Remove; releaseUs is the
	// time of those calls.
	released  bool
	releaseUs float64
	// viaDaemon marks an operation served by Server.Do: waitMs is its
	// queue wait, overheadUs the client-observed time minus the server's.
	viaDaemon          bool
	waitMs, overheadUs float64
	// leftAfterExec counts the plan's commitments still on the calendars
	// when Execute returned.
	leftAfterExec int
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// op runs one client operation to the end: Initiate (through the daemon
// when the fixture has one), verification of the plan, Execute and its
// verification on a chain fixture, then release of everything the plan
// holds.
func (fx *fixture) op(ctx context.Context, s spec.Spec, tr *tracer) opSample {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var out opSample
	top := tracedOp{initiator: fx.initiator}
	var plan *engine.Plan
	if fx.srv != nil {
		out.viaDaemon = true
		top.doStart = time.Now()
		res, err := fx.srv.Do(ctx, daemon.Request{Spec: s, Class: backlog.Normal})
		top.doEnd = time.Now()
		lat := top.doEnd.Sub(top.doStart)
		out.initMs = ms(lat)
		if err != nil {
			out.err = err
			return out
		}
		if res.Err != nil {
			out.err = res.Err
			return out
		}
		plan = res.Plan
		out.waitMs, out.overheadUs = ms(res.Wait), us(lat-res.Latency)
		top.initStart, top.initEnd = top.doStart.Add(res.Wait), top.doStart.Add(min(res.Latency, lat))
	} else {
		top.initStart = time.Now()
		p, err := fx.comm.Initiate(ctx, fx.initiator, s)
		top.initEnd = time.Now()
		out.initMs = ms(top.initEnd.Sub(top.initStart))
		if err != nil {
			out.err = err
			return out
		}
		plan = p
	}
	out.err = fx.verifyPlan(plan)
	if out.err == nil && fx.chain != nil {
		out.executed = true
		out.err = fx.execute(ctx, plan, &out, &top)
	}
	fx.release(plan, &out)
	if tr != nil && out.err == nil {
		top.workflow, top.metas, top.allocs = plan.WorkflowID, plan.Metas, plan.Allocations
		tr.done(top)
	}
	return out
}

// verifyPlan checks a plan against the fixture's inputs: the expected
// task count, every task allocated, and each to a member that registered
// the task's service.
func (fx *fixture) verifyPlan(plan *engine.Plan) error {
	if plan == nil || plan.Workflow == nil {
		return errors.New("no plan")
	}
	if n := plan.Workflow.NumTasks(); n != fx.wantTasks {
		return fmt.Errorf("plan %s has %d tasks, want %d", plan.WorkflowID, n, fx.wantTasks)
	}
	if plan.Replans < 0 {
		return fmt.Errorf("plan %s records %d replans", plan.WorkflowID, plan.Replans)
	}
	for _, id := range plan.Workflow.TaskIDs() {
		to, ok := plan.Allocations[id]
		if !ok {
			return fmt.Errorf("plan %s leaves task %s unallocated", plan.WorkflowID, id)
		}
		if !fx.offers[id][to] {
			return fmt.Errorf("plan %s allocates task %s to %s, which offers no service for it", plan.WorkflowID, id, to)
		}
	}
	return nil
}

// execute runs the plan once its last window has opened — so the time is
// data flow, not calendar — and checks the report: completed, every task
// done, and the goal label carrying the expected payload byte for byte.
func (fx *fixture) execute(ctx context.Context, plan *engine.Plan, out *opSample, top *tracedOp) error {
	var last time.Time
	for _, meta := range plan.Metas {
		if meta.Start.After(last) {
			last = meta.Start
		}
	}
	if d := time.Until(last); d > 0 {
		time.Sleep(d)
	}
	c := fx.chain
	top.execStart = time.Now()
	rep, err := fx.comm.Execute(ctx, fx.initiator, plan, map[model.LabelID][]byte{c.trigger: c.payload})
	top.execEnd = time.Now()
	out.execMs = ms(top.execEnd.Sub(top.execStart))
	for id, to := range plan.Allocations {
		if h, ok := fx.comm.Host(to); ok {
			if _, held := h.Schedule.Get(plan.WorkflowID, id); held {
				out.leftAfterExec++
			}
		}
	}
	switch {
	case err != nil:
		return err
	case !rep.Completed:
		return fmt.Errorf("execution of %s not completed: %v", plan.WorkflowID, rep.Failures)
	case rep.TasksDone != fx.wantTasks:
		return fmt.Errorf("execution of %s finished %d tasks, want %d", plan.WorkflowID, rep.TasksDone, fx.wantTasks)
	case !bytes.Equal(rep.Goals[c.goal], c.want):
		return fmt.Errorf("execution of %s: goal %s carries the wrong payload", plan.WorkflowID, c.goal)
	}
	return nil
}

// release gives back what a plan holds. Commitments go by Remove per
// allocated task — Schedule.ReleaseWorkflow drops holds only, and plans
// released with it pile up until every later request fails — or, on the
// paper's serial workload, by clearing every calendar as its evaluation
// does between runs. The hosts also keep an execution run per award and
// the labels of an executed workflow until told otherwise, so those are
// cleared too; left alone they grow the heap with every Initiate.
func (fx *fixture) release(plan *engine.Plan, out *opSample) {
	if plan == nil {
		return
	}
	hosts := map[proto.Addr]bool{fx.initiator: true}
	if fx.resetAll {
		fx.comm.ResetSchedules()
		for _, to := range plan.Allocations {
			hosts[to] = true
		}
	} else {
		start := time.Now()
		for id, to := range plan.Allocations {
			hosts[to] = true
			if h, ok := fx.comm.Host(to); ok {
				h.Schedule.Remove(plan.WorkflowID, id)
			}
		}
		out.released, out.releaseUs = true, us(time.Since(start))
	}
	for to := range hosts {
		if h, ok := fx.comm.Host(to); ok {
			h.Exec.ClearWorkflow(plan.WorkflowID)
		}
	}
}

// drive runs the closed loop: each of n clients issues its next operation
// when its previous one completes, until the deadline. Client c's i-th
// operation takes pool entry (17c + i) mod len(pool), so a fixed seed
// replays the same request sequence per client.
func (fx *fixture) drive(ctx context.Context, n int, d time.Duration, tr *tracer) []opSample {
	deadline := time.Now().Add(d)
	per := make([][]opSample, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				per[c] = append(per[c], fx.op(ctx, fx.pool[(17*c+i)%len(fx.pool)], tr))
			}
		}(c)
	}
	wg.Wait()
	var all []opSample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// counters is a snapshot of every cumulative count a slice is bracketed
// with.
type counters struct {
	at        time.Time
	transport transport.Stats
	discovery discovery.Stats
	mallocs   uint64
	allocated uint64
	gcPause   time.Duration
	cpu       time.Duration
	mutexWait float64 // seconds
}

func (fx *fixture) snapshot() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ru := rusage()
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	return counters{
		at:        time.Now(),
		transport: fx.comm.TransportStats(),
		discovery: fx.comm.DiscoveryStats(),
		mallocs:   m.Mallocs,
		allocated: m.TotalAlloc,
		gcPause:   time.Duration(m.PauseTotalNs),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mutexWait: s[0].Value.Float64(),
	}
}

// sampler polls, at 10 Hz, the busiest host's active dispatcher sessions
// and the bytes of heap objects, keeping the maximum of each.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	peakSessions int
	peakHeapMB   float64
}

func startSampler(fx *fixture) *sampler {
	sp := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	members := fx.comm.Members()
	go func() {
		defer close(sp.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, id := range members {
				if h, ok := fx.comm.Host(id); ok {
					sp.peakSessions = max(sp.peakSessions, h.ActiveSessions())
				}
			}
			sp.peakHeapMB = max(sp.peakHeapMB, heapObjectsMB())
			select {
			case <-sp.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return sp
}

// finish stops the sampler and waits for it, after which its peaks may be
// read.
func (sp *sampler) finish() {
	close(sp.stop)
	<-sp.done
}

// heapObjectsMB is the memory heap objects occupy right now, live or not
// yet swept, in MiB.
func heapObjectsMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// liveHeapMB forces two collections — a sync.Pool's contents outlive the
// first — and returns what survived. Read before and after a stretch of
// work, the difference is what that work left reachable, as long as
// nothing older lapses in between.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return heapObjectsMB()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// repResult is everything one repetition measured.
type repResult struct {
	// startupMs is the time from the start of construction to the first
	// verified operation; setupS runs on to the end of the warm-up, which
	// is everything the repetition does before it measures.
	startupMs, setupS float64
	wallS             float64
	ops               []opSample // the slice's operations
	before            counters
	after             counters
	// retainedMB is the live heap the slice's operations left behind;
	// peakHeapMB the largest heap sampled while they ran.
	retainedMB, peakHeapMB float64
	sessions               int
	connsOpen              int
	rejected               int64
	// holdsLeft, commitmentsLeft and goroutinesLeft are the
	// per-repetition invariants; violations names each one that failed.
	holdsLeft       int
	commitmentsLeft int
	goroutinesLeft  int
	violations      []string
	agg             *aggregates
	kept            []keptSpan
}

// repPlan is how long a repetition's untimed warm-up and its measured
// slice last.
type repPlan struct {
	warm, slice time.Duration
}

// planReps splits a workload's measured time evenly over its repetitions.
func planReps(total time.Duration) repPlan {
	share := total / reps
	return repPlan{warm: min(warmUp, share/4), slice: share}
}

const (
	// reps is how many repetitions measure a workload, each on a fresh
	// system; every end-to-end metric is the median over them.
	reps   = 5
	warmUp = 500 * time.Millisecond
)

func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// footprint is the live heap a ready system holds, in MiB: what survives a
// collection once the system is built and has served its first verified
// operation, less what survived one just before. It is taken before any
// repetition runs: repetitions leave five-minute lease timers and more
// behind, part of which lapses while the next system is being built, and a
// difference taken across that reads anything, below zero included. The
// system is built twice and the second one read, so that what the process
// initialises once, on first use, is not counted to whichever workload
// happens to run first.
func footprint(ctx context.Context, w *workload, seed int64, k int) (mb float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	for i := 0; i < 2 && err == nil; i++ {
		mb, err = w.readyHeapMB(ctx, seed, k)
	}
	return mb, err
}

// readyHeapMB builds the workload's system, reads the live heap it added
// once it has served an operation, and closes it. The closed system stays
// reachable from its bid-expiry timers, so the call returns only once they
// have fired.
func (w *workload) readyHeapMB(ctx context.Context, seed int64, k int) (float64, error) {
	idle := liveHeapMB()
	fx, err := w.build(seed, k, hooks{})
	if err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	first := fx.op(ctx, fx.pool[0], nil)
	ready := liveHeapMB()
	if err := fx.close(); err != nil {
		return 0, fmt.Errorf("%s: close: %w", w.name, err)
	}
	time.Sleep(auction.DefaultBidWindow + 20*time.Millisecond)
	if first.err != nil {
		return 0, fmt.Errorf("%s: first operation: %w", w.name, first.err)
	}
	return ready - idle, nil
}

// runRep is one repetition: build a fresh system from the seed and drive
// it to its first verified operation (timed as start-up), run the client
// loop for the warm-up (with it, timed as set-up), measure the slice between two counter snapshots, then check the
// invariants a correct run leaves behind — no hold and no commitment once
// a bid window has passed, every admitted request accounted for,
// goroutines back to where they started after Close.
func runRep(ctx context.Context, w *workload, seed int64, k int, rp repPlan, tr *tracer) (*repResult, error) {
	res := &repResult{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs()))
	goroutines := runtime.NumGoroutine()
	fds := countFDs()
	var hk hooks
	if tr != nil {
		hk = tr.hooks()
	}

	runtime.GC() // or the last system's garbage makes a collection due inside the timed start-up
	start := time.Now()
	fx, err := w.build(seed, k, hk)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if first := fx.op(ctx, fx.pool[0], nil); first.err != nil {
		_ = fx.close()
		return nil, fmt.Errorf("%s: first operation: %w", w.name, first.err)
	}
	res.startupMs = ms(time.Since(start))
	clients := w.clients(k)
	fx.drive(ctx, clients, rp.warm, nil)
	res.setupS = time.Since(start).Seconds()

	if tr != nil {
		tr.on.Store(true)
	}
	warm := liveHeapMB()
	sp := startSampler(fx)
	res.before = fx.snapshot()
	res.ops = fx.drive(ctx, clients, rp.slice, tr)
	res.after = fx.snapshot()
	sp.finish()
	res.retainedMB = liveHeapMB() - warm
	if tr != nil {
		tr.build()
		res.agg, res.kept = &tr.agg, tr.kept
	}
	res.wallS = res.after.at.Sub(res.before.at).Seconds()
	res.sessions, res.peakHeapMB = sp.peakSessions, sp.peakHeapMB
	if fx.tcp {
		res.connsOpen = max(0, countFDs()-fds-fx.hosts) / 2
	}

	res.holdsLeft, res.commitmentsLeft = settle(fx.comm)
	if res.holdsLeft != 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d holds left after a bid window", res.holdsLeft))
	}
	if res.commitmentsLeft != 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d commitments left after release", res.commitmentsLeft))
	}
	if fx.srv != nil {
		snap := fx.srv.Snapshot()
		res.rejected = snap.Rejected
		if snap.Accepted != snap.Completed+snap.Aborted {
			res.violations = append(res.violations, fmt.Sprintf("daemon accepted %d but completed %d + aborted %d", snap.Accepted, snap.Completed, snap.Aborted))
		}
	}
	if err := fx.close(); err != nil {
		res.violations = append(res.violations, fmt.Sprintf("close: %v", err))
	}
	res.goroutinesLeft = goroutinesAbove(goroutines)
	if res.goroutinesLeft != 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d goroutines above the baseline after Close", res.goroutinesLeft))
	}
	return res, nil
}

// settle waits out one bid window — losers' holds are released by Cancel
// or, failing that, expire with their bid — and returns what is still on
// the community's calendars.
func settle(comm *community.Community) (holds, commitments int) {
	deadline := time.Now().Add(auction.DefaultBidWindow + time.Second)
	time.Sleep(auction.DefaultBidWindow / 10)
	for {
		holds, commitments = comm.TotalHolds(), comm.TotalCommitments()
		if (holds == 0 && commitments == 0) || time.Now().After(deadline) {
			return holds, commitments
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutinesAbove waits up to three seconds for the goroutine count to
// fall back to base and returns how many remain above it.
func goroutinesAbove(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// raiseFDLimit lifts RLIMIT_NOFILE to its hard limit and fails below the
// 4 096 descriptors the 32-host TCP mesh needs with room to spare
// (32 × 31 directed connections × 2 descriptors, plus listeners).
func raiseFDLimit() error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	if lim.Cur < lim.Max {
		lim.Cur = lim.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			return fmt.Errorf("setrlimit: %w", err)
		}
	}
	if lim.Cur < 4096 {
		return fmt.Errorf("tcp_wide needs 4096 file descriptors, the hard limit is %d", lim.Cur)
	}
	return nil
}
