package community

// Fault coverage for a host's memory of its community (DESIGN.md §13):
// what a member said about itself routes every later sweep, so each test
// breaks that knowledge a different way — the member never got to
// describe itself (partition), described itself and then died (crash),
// or described a service it then withdrew — on the virtual clock, with
// inmem faults, under the chaos job's race detector. The invariant is the
// chaos harness's: a session ends allocated or cleanly aborted, and no
// hold outlives its bid window.
//
// Every session here is its host's first and stays inside one TTL of
// virtual time (call timeouts are a second, the driven clock runs 20 ms
// per wall millisecond), so what the tests count is what one session's
// worth of memory costs; lapse and doubt have tests of their own on a
// clock that does not run (internal/discovery, internal/engine).

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/core"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/trace"
)

const dirChain = 4

// buildDirectoryChaos materializes host00 (initiator, all knowhow of one
// dirChain-task chain) plus five providers. Shared mode registers every
// service on every provider; sole mode gives task i to provider 1+i alone.
func buildDirectoryChaos(t *testing.T, sim *clock.Sim, cfg engine.Config, rec trace.Recorder, sole bool) *Community {
	t.Helper()
	specs := make([]HostSpec, 6)
	for h := range specs {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	for i := 0; i < dirChain; i++ {
		task := string(stressTask(0, i))
		specs[0].Fragments = append(specs[0].Fragments, frag(t, "know-"+task,
			ctask(task, []model.LabelID{stressLabel(0, i)}, []model.LabelID{stressLabel(0, i+1)})))
		for h := 1; h < len(specs); h++ {
			if !sole || h == 1+i {
				specs[h].Services = append(specs[h].Services, svc(task, 0))
			}
		}
	}
	cfg.TaskWindow = time.Second
	cfg.StartDelay = time.Duration(dirChain+2) * time.Second
	cfg.CallTimeout = time.Second
	return newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec}, specs...)
}

// driveClock advances the virtual clock in the background, so call
// timeouts trip (a lost request costs 50 ms of wall time) and auction
// deadlines pass; the returned stop joins it and may be called more than
// once. A test whose fault is over stops the clock before the auction: bid
// windows are 200 ms of virtual time, which a free-running clock burns
// through while a sweep is still in flight.
func driveClock(sim *clock.Sim) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			sim.Advance(20 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}()
	return func() { once.Do(func() { close(quit); wg.Wait() }) }
}

// received counts, per host, the recorded arrivals of one message kind.
func received(buf *trace.Buffer, kind string) map[proto.Addr]int {
	out := make(map[proto.Addr]int)
	for _, e := range buf.Events() {
		if e.Kind == kind && e.Dir == trace.Recv {
			out[e.Host]++
		}
	}
	return out
}

// settleDirectoryChaos lets every bid window lapse and demands that no
// hold survives it.
func settleDirectoryChaos(t *testing.T, c *Community, sim *clock.Sim) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sim.Advance(time.Second); c.TotalHolds() != 0; sim.Advance(time.Second) {
		if time.Now().After(deadline) {
			t.Fatalf("%d holds outlived their bid window", c.TotalHolds())
		}
		time.Sleep(time.Millisecond)
	}
}

var dirSpec = stressSpecs(1, dirChain)[0]

// partitionOff isolates x from the rest of the community.
func partitionOff(c *Community, x proto.Addr) {
	var rest []proto.Addr
	for _, id := range c.Members() {
		if id != x {
			rest = append(rest, id)
		}
	}
	c.Network().SetPartition(rest, []proto.Addr{x})
}

// TestChaosDirectoryPartitionedMember: a member cut off during the first
// sweep never describes itself, so every later sweep of the construction —
// each collection round and the feasibility query — still tries it, and
// nobody else is sent a feasibility query. The partition heals before the
// auction (a silent member inside a solicitation sweep outlasts the other
// bids' windows, however sweeps are routed), and the member, still
// undescribed, is solicited like everyone a broadcast would solicit.
func TestChaosDirectoryPartitionedMember(t *testing.T) {
	const x = proto.Addr("host03")
	sim := clock.NewSim(chaosT0)
	buf := trace.NewBuffer(0)
	var c *Community
	var stop func()
	cfg := engine.DefaultConfig()
	cfg.Observer.ConstructionDone = func(string, core.Result) {
		c.Network().SetPartition()
		stop()
	}
	c = buildDirectoryChaos(t, sim, cfg, buf, false)
	partitionOff(c, x)

	stop = driveClock(sim)
	plan, err := c.Initiate(ctxTimeout(t, 60*time.Second), "host00", dirSpec)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != dirChain || plan.Replans != 0 {
		t.Fatalf("plan allocated %d of %d tasks after %d replans", len(plan.Allocations), dirChain, plan.Replans)
	}
	// Everything the network dropped was addressed to x (nobody else is
	// unreachable, and x itself sends nothing): one request per sweep.
	rounds := plan.Construction.CollectionRounds
	if got, want := c.Network().Dropped(), int64(rounds+1); got != want {
		t.Errorf("%d requests were lost on the way to %s, want %d: one per collection round (%d) and the feasibility query",
			got, x, want, rounds)
	}
	if got := received(buf, "feasibility-query"); len(got) != 0 {
		t.Errorf("feasibility queries reached %v; every reachable member had described itself", got)
	}
	// Round 1 reaches the five reachable members; rounds 2… only the one
	// that consumes the frontier (host00) — and x, in vain.
	if got, want := received(buf, "fragment-query"), (map[proto.Addr]int{
		"host00": rounds, "host01": 1, "host02": 1, "host04": 1, "host05": 1,
	}); !reflect.DeepEqual(got, want) {
		t.Errorf("fragment queries received: %v, want %v", got, want)
	}
	if got := received(buf, "call-for-bids-batch")[x]; got != 1 {
		t.Errorf("%s received %d calls for bids, want 1: a member that never described itself is always solicited", x, got)
	}
	settleDirectoryChaos(t, c, sim)
}

// healOnReply heals the partition the moment host00 has received its
// n-th fragment reply — synchronously with the session, which is blocked
// in that very round trip.
type healOnReply struct {
	*trace.Buffer
	heal func()

	mu sync.Mutex
	n  int
}

func (r *healOnReply) Record(e trace.Event) {
	r.Buffer.Record(e)
	if e.Host != "host00" || e.Dir != trace.Recv || e.Kind != "fragment-reply" {
		return
	}
	r.mu.Lock()
	r.n--
	due := r.n == 0
	r.mu.Unlock()
	if due {
		r.heal()
	}
}

// TestChaosDirectoryLearnsAfterHeal: the partition heals in the middle of
// round 2. The member is asked again in that round, describes itself, and
// from then on is routed like everyone else: no further fragment query
// (it consumes nothing), no feasibility query to anyone, and a call for
// bids because it offers the tasks.
func TestChaosDirectoryLearnsAfterHeal(t *testing.T) {
	const x = proto.Addr("host03")
	sim := clock.NewSim(chaosT0)
	// Five replies in round 1 (x's never comes), then host00's own in
	// round 2 — at which point the round's query to x has not gone out.
	rec := &healOnReply{Buffer: trace.NewBuffer(0), n: 6}
	c := buildDirectoryChaos(t, sim, engine.DefaultConfig(), rec, false)
	stop := driveClock(sim)
	rec.heal = func() {
		c.Network().SetPartition()
		stop()
	}
	partitionOff(c, x)

	plan, err := c.Initiate(ctxTimeout(t, 60*time.Second), "host00", dirSpec)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != dirChain {
		t.Fatalf("plan allocated %d of %d tasks", len(plan.Allocations), dirChain)
	}
	if got := c.Network().Dropped(); got != 1 {
		t.Errorf("%d requests lost, want only round 1's query to %s", got, x)
	}
	if got := received(rec.Buffer, "fragment-query")[x]; got != 1 {
		t.Errorf("%s received %d fragment queries, want 1: asked again in round 2, described, then routed around", x, got)
	}
	if got := received(rec.Buffer, "feasibility-query"); len(got) != 0 {
		t.Errorf("feasibility queries reached %v; the whole community had described itself by then", got)
	}
	if got := received(rec.Buffer, "call-for-bids-batch")[x]; got != 1 {
		t.Errorf("%s received %d calls for bids, want 1: it offers the tasks", x, got)
	}
	settleDirectoryChaos(t, c, sim)
}

// TestChaosDirectoryCrashAfterDescribing: a member that dies between
// describing itself and the auction costs each solicitation sweep exactly
// one failed request — the index still lists what it offered — and, when
// it was a task's only provider, the best-effort Cancel of the award that
// rode on that request (the member may have committed and its reply been
// lost; the initiator cannot tell). The
// session ends allocated or cleanly aborted (the dead member's silence
// outlasts the other bids' windows, so §5.1 may run out of tasks; when it
// was a task's only provider there is no other way at all), nothing is
// awarded to the dead member, and no hold outlives its bid window.
func TestChaosDirectoryCrashAfterDescribing(t *testing.T) {
	const x, witness = proto.Addr("host02"), proto.Addr("host01")
	for _, sole := range []bool{false, true} {
		t.Run(fmt.Sprintf("sole=%v", sole), func(t *testing.T) {
			sim := clock.NewSim(chaosT0)
			buf := trace.NewBuffer(0)
			var c *Community
			var once sync.Once
			cfg := engine.DefaultConfig()
			cfg.Observer.ConstructionDone = func(string, core.Result) {
				once.Do(func() {
					if err := c.CrashHost(x); err != nil {
						t.Error(err)
					}
				})
			}
			c = buildDirectoryChaos(t, sim, cfg, buf, sole)

			stop := driveClock(sim)
			plan, err := c.Initiate(ctxTimeout(t, 120*time.Second), "host00", dirSpec)
			stop()
			switch {
			case err == nil:
				if sole {
					t.Fatalf("allocated %v although the only provider of %s is gone", plan.Allocations, stressTask(0, 1))
				}
				for task, winner := range plan.Allocations {
					if winner == x {
						t.Errorf("%s awarded to the crashed %s", task, x)
					}
				}
			case errors.Is(err, core.ErrNoSolution) || errors.Is(err, engine.ErrAllocationFailed):
				if n := c.TotalCommitments(); n != 0 {
					t.Errorf("%d commitments survive the aborted session", n)
				}
			default:
				t.Fatalf("err = %v, want an allocated plan or a clean abort", err)
			}
			// The witness offers a task of every attempt's workflow, so
			// it saw every solicitation sweep; x was part of each one.
			sweeps := received(buf, "call-for-bids-batch")
			if sweeps[x] != 0 {
				t.Errorf("the crashed %s received %d calls for bids", x, sweeps[x])
			}
			perSweep := 1
			if sole {
				perSweep = 2
			}
			if got := c.Network().Dropped(); sweeps[witness] == 0 || got != int64(perSweep*sweeps[witness]) {
				t.Errorf("%d envelopes lost over %d solicitation sweeps, want %d per sweep", got, sweeps[witness], perSweep)
			}
			settleDirectoryChaos(t, c, sim)
		})
	}
}

// TestChaosDirectoryWithdrawnService: a service unregistered after its
// host described it leaves the index stale for the rest of the
// session. The stale entry is caught where staleness always was — the
// host declines the call for bids — and §5.1 converges in one replan:
// the task is excluded and the alternative route allocated.
func TestChaosDirectoryWithdrawnService(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	var c *Community
	var once sync.Once
	var withdrawn model.TaskID
	var replans [][]model.TaskID
	cfg := engine.DefaultConfig()
	cfg.TaskWindow = time.Second
	cfg.StartDelay = 4 * time.Second
	cfg.CallTimeout = time.Hour // nothing is unreachable here, nothing may time out
	cfg.Observer.ConstructionDone = func(_ string, res core.Result) {
		once.Do(func() {
			// Whichever second step the construction chose, its
			// provider withdraws it before the auction.
			for _, id := range res.Workflow.TaskIDs() {
				if id != "first" {
					withdrawn = id
				}
			}
			h, _ := c.Host(proto.Addr("host-" + withdrawn))
			h.Services.Unregister(withdrawn)
		})
	}
	cfg.Observer.Replanned = func(_ string, _ int, excluded []model.TaskID) {
		replans = append(replans, excluded)
	}
	c = newTestCommunity(t, Options{Clock: sim, Engine: &cfg},
		HostSpec{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-first", ctask("first", lbl("in"), lbl("mid"))),
			frag(t, "know-left", ctask("left", lbl("mid"), lbl("out"))),
			frag(t, "know-right", ctask("right", lbl("mid"), lbl("out"))),
		}},
		HostSpec{ID: "host-first", Services: []service.Registration{svc("first", 0)}},
		HostSpec{ID: "host-left", Services: []service.Registration{svc("left", 0)}},
		HostSpec{ID: "host-right", Services: []service.Registration{svc("right", 0)}},
	)

	plan, err := c.Initiate(ctxTimeout(t, 60*time.Second), "host00", spec.Must(lbl("in"), lbl("out")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Replans != 1 || len(replans) != 1 || len(replans[0]) != 1 || replans[0][0] != withdrawn {
		t.Fatalf("replans = %d, excluded %v; want one replan excluding the withdrawn %q", plan.Replans, replans, withdrawn)
	}
	if _, kept := plan.Workflow.Task(withdrawn); kept || plan.Workflow.NumTasks() != 2 || len(plan.Allocations) != 2 {
		t.Fatalf("replanned workflow still uses %q or is not fully allocated:\n%v\n%v", withdrawn, plan.Workflow, plan.Allocations)
	}
	settleDirectoryChaos(t, c, sim)
}

// TestChaosDirectoryFullCollection: with Incremental off the one
// collect-everything sweep is also the describing one, so full
// collection's feasibility re-check costs no message and bids are
// solicited from the offerers only.
func TestChaosDirectoryFullCollection(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	buf := trace.NewBuffer(0)
	cfg := engine.DefaultConfig()
	cfg.Incremental = false
	c := buildDirectoryChaos(t, sim, cfg, buf, true)

	plan, err := c.Initiate(ctxTimeout(t, 60*time.Second), "host00", dirSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocations) != dirChain {
		t.Fatalf("plan allocated %d of %d tasks", len(plan.Allocations), dirChain)
	}
	want := make(map[proto.Addr]int)
	for _, id := range c.Members() {
		want[id] = 1
	}
	if got := received(buf, "fragment-query"); !reflect.DeepEqual(got, want) {
		t.Errorf("fragment queries received: %v, want one collection sweep %v", got, want)
	}
	if got := received(buf, "feasibility-query"); len(got) != 0 {
		t.Errorf("feasibility queries reached %v, want none", got)
	}
	delete(want, "host00") // knows everything, offers nothing
	delete(want, "host05") // sole mode: four tasks, providers 1–4
	if got := received(buf, "call-for-bids-batch"); !reflect.DeepEqual(got, want) {
		t.Errorf("calls for bids received: %v, want the offerers %v", got, want)
	}
	settleDirectoryChaos(t, c, sim)
}
