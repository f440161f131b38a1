package community

// Acceptance tests for the round-collapsed allocation protocol: batched
// per-member calls for bids keep the Call round-trip count per Initiate
// linear in hosts, not hosts×tasks. The per-task oracle retired in PR 6,
// so the bar is pinned as an absolute call budget instead of a
// differential against the legacy path.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/transport/inmem"
)

// callCountLayout: host00 initiates and knows every fragment; host01
// provides every service; the rest answer queries empty-handed — so the
// Call count is a pure function of the protocol shape, not of knowledge
// placement. Full-collection construction (one query round) keeps the
// construction-phase traffic to exactly one sweep; the rest is the
// auction.
func buildCallCount(t *testing.T, hosts, chain int, sim *clock.Sim) (*Community, spec.Spec) {
	t.Helper()
	var frags []*model.Fragment
	for i := 0; i < chain; i++ {
		frags = append(frags, frag(t, fmt.Sprintf("know-c%02d", i),
			ctask(fmt.Sprintf("c-t%02d", i),
				lbl(fmt.Sprintf("c-l%02d", i)),
				lbl(fmt.Sprintf("c-l%02d", i+1)))))
	}
	specs := make([]HostSpec, hosts)
	for h := 0; h < hosts; h++ {
		specs[h] = HostSpec{ID: proto.Addr(fmt.Sprintf("host%02d", h))}
	}
	specs[0].Fragments = frags
	for i := 0; i < chain; i++ {
		specs[1].Services = append(specs[1].Services, svc(fmt.Sprintf("c-t%02d", i), 0))
	}

	cfg := engine.DefaultConfig()
	cfg.Incremental = false // one full-collection query round per attempt
	cfg.Feasibility = false
	cfg.TaskWindow = time.Second
	cfg.StartDelay = time.Duration(chain+2) * time.Second
	cfg.CallTimeout = time.Hour
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg}, specs...)
	return c, spec.Must(lbl("c-l00"), lbl(fmt.Sprintf("c-l%02d", chain)))
}

// runCallCount performs one Initiate and returns the inmem round-trip
// count it cost plus the canonical plan bytes.
func runCallCount(t *testing.T) (int64, string) {
	t.Helper()
	const hosts, chain = 10, 8
	sim := clock.NewSim(stressT0)
	c, s := buildCallCount(t, hosts, chain, sim)
	c.Network().ResetCounters()
	plan, err := c.Initiate(context.Background(), "host00", s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != chain || len(plan.Allocations) != chain {
		t.Fatalf("plan has %d tasks, %d allocations",
			plan.Workflow.NumTasks(), len(plan.Allocations))
	}
	for task, host := range plan.Allocations {
		if host != "host01" {
			t.Fatalf("task %s awarded to %s, want host01", task, host)
		}
	}
	calls := c.Network().Stats().Calls
	// Let the bid windows expire so the hold-leak check in
	// newTestCommunity sees a settled community.
	sim.Advance(time.Minute)
	return calls, canonicalPlans([]*engine.Plan{plan})
}

// TestBatchedCFBCallBudgetAtTenHosts pins the allocation round-trip
// budget: one full-collection fragment query per member (the initiator
// queries itself over the loopback too), in which every member also
// describes itself; one batched call for bids to the one member whose
// description offers any of the tasks — and, that member being the only
// one offering them, the call carries the award of all chain tasks and its
// bids are the commitments: hosts+1 Calls in total. (It was hosts+1+1 while
// the sole winner was sent one Award for the whole chain after its bids,
// and hosts+1+chain = 19 while each decision was awarded on its own.) A
// broadcast solicitation costs a further hosts−1, the retired per-task
// oracle hosts·(chain−1) on top; any regression toward either, or toward an
// award per task or per winner, breaks the equality.
func TestBatchedCFBCallBudgetAtTenHosts(t *testing.T) {
	const hosts = 10
	calls, _ := runCallCount(t)
	want := int64(hosts + 1)
	t.Logf("calls per Initiate: %d (budget %d)", calls, want)
	if calls != want {
		t.Fatalf("Initiate cost %d call round trips, want exactly %d", calls, want)
	}
}

// TestBatchedCFBByteStableAcrossRuns: the batched path is as
// deterministic as the per-task path it replaced — two runs with the
// same seed produce identical canonical plans.
func TestBatchedCFBByteStableAcrossRuns(t *testing.T) {
	_, first := runCallCount(t)
	_, second := runCallCount(t)
	if first != second {
		t.Fatalf("batched plans not byte-stable:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, second)
	}
}

// TestBatchedCFBOnModeledMedium runs one Initiate over the modeled
// 802.11g medium with batching on and asserts frame-level coalescing
// accounting stays consistent (frames ≤ envelopes, batches only when
// frames coalesced) under real latency interleavings.
func TestBatchedCFBOnModeledMedium(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.ParallelQuery = true
	cfg.CallTimeout = 10 * time.Second
	cfg.StartDelay = time.Hour
	cfg.TaskWindow = time.Minute
	c := newTestCommunity(t, Options{
		Engine:    &cfg,
		LinkModel: inmem.Wireless(500*time.Microsecond, 200*time.Microsecond, 54e6),
		Seed:      1,
	}, cateringSpecs(t, true, true)...)
	if _, err := c.Initiate(context.Background(), "manager", spec.Must(lbl("lunch ingredients"), lbl("lunch served"))); err != nil {
		t.Fatal(err)
	}
	st := c.Network().Stats()
	if st.Frames == 0 || st.Envelopes < st.Frames {
		t.Fatalf("inconsistent stats %+v", st)
	}
	if st.Calls == 0 {
		t.Fatalf("no call round trips recorded: %+v", st)
	}
}
