package community

// What a host remembers of its members' knowhow (DESIGN.md §13): a session
// constructs from the fragments earlier sessions collected and asks only
// for labels nobody has answered yet, and the staleness rules that guard
// the capability sets guard the fragments with them. These tests change a
// member's Fragment Manager after it has answered — which the rest of the
// suite never does — on a clock that moves only when the test says so, and
// count the fragment queries each member receives.

import (
	"reflect"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/discovery"
	"openwf/internal/engine"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/trace"
)

// knowhowCommunity is host00 (initiates; knows and offers nothing), host01
// (knows t1: a → m), host02 (knows t2: m → g) and host03, which offers every
// task these tests ever add. With advertiser set, host00's index is warmed
// by the advertiser before the first session: every entry is a pushed one,
// and on the test's clock nobody pushes again unless told to.
type knowhowCommunity struct {
	*Community
	t   *testing.T
	sim *clock.Sim
	buf *trace.Buffer
	// seen is how much of buf earlier sessions recorded.
	seen int
}

func newKnowhowCommunity(t *testing.T, advertiser bool) *knowhowCommunity {
	t.Helper()
	k := &knowhowCommunity{t: t, sim: clock.NewSim(chaosT0), buf: &trace.Buffer{}}
	cfg := engine.DefaultConfig()
	cfg.TaskWindow = time.Second
	cfg.StartDelay = 4 * time.Second
	// Virtual: a call runs out only when a test advances the clock, and
	// then at the instant the bids made with it lapse.
	cfg.CallTimeout = auction.DefaultBidWindow
	opts := Options{Clock: k.sim, Engine: &cfg, Trace: k.buf}
	if advertiser {
		opts.Discovery = &host.DiscoveryConfig{}
	}
	k.Community = newTestCommunity(t, opts,
		HostSpec{ID: "host00"},
		HostSpec{ID: "host01", Fragments: []*model.Fragment{frag(t, "know-t1", ctask("t1", lbl("a"), lbl("m")))}},
		HostSpec{ID: "host02", Fragments: []*model.Fragment{frag(t, "know-t2", ctask("t2", lbl("m"), lbl("g")))}},
		HostSpec{ID: "host03", Services: []service.Registration{svc("t1", 0), svc("t1b", 0), svc("t2", 0), svc("t3", 0)}},
	)
	if advertiser {
		if err := k.WarmDiscovery(ctxTimeout(t, 10*time.Second), "host00"); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// gains adds a fragment to a member's Fragment Manager after the fact.
func (k *knowhowCommunity) gains(member proto.Addr, f *model.Fragment) {
	k.t.Helper()
	h, _ := k.Host(member)
	if err := h.Fragments.Add(f); err != nil {
		k.t.Fatal(err)
	}
}

// session plans triggers → goals on host00 against empty calendars and
// returns the plan with the fragment queries each member received for it.
func (k *knowhowCommunity) session(goal string) (*engine.Plan, map[proto.Addr]int, error) {
	k.t.Helper()
	k.ResetSchedules()
	plan, err := k.Initiate(ctxTimeout(k.t, 60*time.Second), "host00", spec.Must(lbl("a"), lbl(goal)))
	queries := make(map[proto.Addr]int)
	events := k.buf.Events()
	for _, e := range events[k.seen:] {
		if e.Kind == "fragment-query" && e.Dir == trace.Recv {
			queries[e.Host]++
		}
	}
	k.seen = len(events)
	return plan, queries, err
}

// planned is session for a goal that must be reached without a replan.
func (k *knowhowCommunity) planned(goal string) (*engine.Plan, map[proto.Addr]int) {
	k.t.Helper()
	plan, queries, err := k.session(goal)
	if err != nil {
		k.t.Fatalf("a → %s: %v", goal, err)
	}
	if plan.Replans != 0 || len(plan.Allocations) != plan.Workflow.NumTasks() {
		k.t.Fatalf("a → %s: %d replans, %d of %d tasks allocated", goal, plan.Replans, len(plan.Allocations), plan.Workflow.NumTasks())
	}
	return plan, queries
}

var (
	noQueries = map[proto.Addr]int{}
	// collected is what a→g costs a host that knows its members' sets and
	// none of their fragments; describingSweep what it costs one that
	// knows nobody — round 1 asks everyone.
	collected       = map[proto.Addr]int{"host01": 1, "host02": 1}
	describingSweep = map[proto.Addr]int{"host00": 1, "host01": 1, "host02": 2, "host03": 1}
)

// TestDirectoryKnowhowBelievedWithinTTL: a member that gains a fragment
// for a label it has already answered is believed as it was for the rest of
// the TTL — sessions plan without the fragment and send no fragment query —
// and the first session after the lapse collects it.
func TestDirectoryKnowhowBelievedWithinTTL(t *testing.T) {
	k := newKnowhowCommunity(t, false)
	if plan, queries := k.planned("g"); plan.Construction.FragmentsCollected != 2 || !reflect.DeepEqual(queries, describingSweep) {
		t.Fatalf("first session: %d fragments for the queries %v, want 2 for %v", plan.Construction.FragmentsCollected, queries, describingSweep)
	}
	k.gains("host01", frag(t, "know-t1b", ctask("t1b", lbl("a"), lbl("m"))))
	for _, wait := range []time.Duration{0, discovery.DefaultTTL - time.Nanosecond} {
		k.sim.Advance(wait)
		if plan, queries := k.planned("g"); plan.Construction.FragmentsCollected != 2 || !reflect.DeepEqual(queries, noQueries) {
			t.Errorf("%v into the TTL: %d fragments for the queries %v, want the 2 remembered and no query", k.sim.Now().Sub(chaosT0), plan.Construction.FragmentsCollected, queries)
		}
	}
	k.sim.Advance(time.Nanosecond)
	if plan, queries := k.planned("g"); plan.Construction.FragmentsCollected != 3 || !reflect.DeepEqual(queries, describingSweep) {
		t.Errorf("after the TTL: %d fragments for the queries %v, want 3 for %v", plan.Construction.FragmentsCollected, queries, describingSweep)
	}
}

// TestDirectoryKnowhowDoubtedBeforeFailing: the fragment a member gained
// for a label it has already answered is the only way to the goal. Planned
// from memory the session finds no solution; instead of reporting that it
// doubts what it remembers and runs exactly once more — without the clock
// moving — and the rerun starts with nobody's knowhow, whether the host
// knows its members by their descriptions or by their advertisers: a Doubt
// that leaves pushed entries alone reports the failure.
func TestDirectoryKnowhowDoubtedBeforeFailing(t *testing.T) {
	for _, tc := range []struct {
		name       string
		advertiser bool
		first      map[proto.Addr]int // the session that fills the memory
		rerun      map[proto.Addr]int // the run from memory sends nothing
	}{
		{name: "pulled", first: describingSweep, rerun: describingSweep},
		{name: "pushed", advertiser: true, first: collected, rerun: collected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKnowhowCommunity(t, tc.advertiser)
			if _, queries := k.planned("g"); !reflect.DeepEqual(queries, tc.first) {
				t.Fatalf("first session's queries %v, want %v", queries, tc.first)
			}
			k.gains("host02", frag(t, "know-t3", ctask("t3", lbl("m"), lbl("z"))))
			plan, queries := k.planned("z")
			if _, ok := plan.Workflow.Task("t3"); !ok {
				t.Fatalf("planned without t3:\n%v", plan.Workflow)
			}
			if !reflect.DeepEqual(queries, tc.rerun) {
				t.Errorf("queries %v, want %v: none from memory, then one run that asks for everything again", queries, tc.rerun)
			}
			// What the rerun collected is remembered in turn.
			if _, queries := k.planned("z"); !reflect.DeepEqual(queries, noQueries) {
				t.Errorf("the session after: queries %v, want none", queries)
			}
		})
	}
}

// TestDirectoryKnowhowDroppedByPush: an advertiser push between two
// sessions replaces its member's entry, so the member is asked again for
// what it had answered — and it alone.
func TestDirectoryKnowhowDroppedByPush(t *testing.T) {
	k := newKnowhowCommunity(t, true)
	if _, queries := k.planned("g"); !reflect.DeepEqual(queries, collected) {
		t.Fatalf("first session's queries %v, want %v", queries, collected)
	}
	initiator, _ := k.Host("host00")
	pusher, _ := k.Host("host02")
	ads := initiator.Discovery().Stats().Ads
	pusher.AdvertiseSoon()
	for deadline := time.Now().Add(5 * time.Second); initiator.Discovery().Stats().Ads == ads; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("host02's advertisement never reached host00")
		}
	}
	if _, queries := k.planned("g"); !reflect.DeepEqual(queries, map[proto.Addr]int{"host02": 1}) {
		t.Errorf("queries after host02's push: %v, want one to host02 and none to host01", queries)
	}
	if _, queries := k.planned("g"); !reflect.DeepEqual(queries, noQueries) {
		t.Errorf("the session after: queries %v, want none", queries)
	}
}

// TestChaosDirectoryUnreachableMemberStillKnows: knowledge outlives
// reachability. A member that has answered and then drops off the network
// still contributes its knowhow — the next session constructs the same
// workflow without a fragment query, so none is lost on the way to the dead
// member either — and what it can no longer do is settled where capability
// always is, by the auction: it is solicited, in vain, and simply does not
// bid.
func TestChaosDirectoryUnreachableMemberStillKnows(t *testing.T) {
	const x = proto.Addr("host01")
	// The bid window is the call timeout, so the one instant at which the
	// call to x gives up is also the one at which host03's bids — made
	// before x was tried: session 2 starts its sweep at host02 — are
	// decided, and the clock has to move exactly once.
	k := newKnowhowCommunity(t, false)
	h, _ := k.Host(x)
	if err := h.Services.Register(svc("t1", 0)); err != nil {
		t.Fatal(err)
	}
	k.planned("g")
	partitionOff(k.Community, x)

	lost := make(chan struct{})
	go func() {
		defer close(lost)
		for deadline := time.Now().Add(30 * time.Second); k.Network().Stats().FramesDropped == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		k.sim.Advance(auction.DefaultBidWindow)
	}()
	plan, queries := k.planned("g")
	<-lost
	if !reflect.DeepEqual(queries, noQueries) {
		t.Errorf("fragment queries %v, want none", queries)
	}
	if _, ok := plan.Workflow.Task("t1"); !ok || plan.Allocations["t1"] != "host03" {
		t.Errorf("t1 → %q in\n%v\nwant x's knowhow used and its task on host03", plan.Allocations["t1"], plan.Workflow)
	}
	if got := k.Network().Stats().FramesDropped; got != 1 {
		t.Errorf("%d requests lost, want only the call for bids to %s", got, x)
	}
	if got := received(k.buf, "call-for-bids-batch"); got[x] != 1 || got["host03"] != 2 {
		t.Errorf("calls for bids received: %v, want %s in the first session only and host03 in both", got, x)
	}
	k.Network().SetPartition()
	settleDirectoryChaos(t, k.Community, k.sim)
}
