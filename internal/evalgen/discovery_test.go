package evalgen

import (
	"context"
	"testing"

	"openwf/internal/engine"
)

// TestDiscoverySmoke is the CI smoke row for the Discovery grid, on a
// 40-host community with 5 relevant providers and a 6-task chain. Routed
// by the advertiser's sets, a host's first session costs exactly 12 round
// trips: one fragment query per chain task to the host that holds the
// knowhow, no feasibility query, 5 calls for bids, and 1 award — the five
// providers are replicas, one of them wins all six tasks when the fifth
// answers, and a winner is awarded once (17 while each task was awarded on
// its own). The first session on a cold host pays one describing sweep
// over the community on top, once. Either way the host then remembers the
// fragments too, and its second session costs exactly 6: no fragment
// query, 5 calls for bids, 1 award (was 11). The root
// BenchmarkDiscoveryInitiate runs the same fixture at 10 and 100 hosts.
func TestDiscoverySmoke(t *testing.T) {
	const hosts, remembered, routed = 40, 5 + 1, 6 + 5 + 1
	ctx := context.Background()
	run := func(advertiser bool) (first, second int64) {
		t.Helper()
		comm, initiator, s, err := DiscoverySetup(ctx, hosts, 5, 6, advertiser, 1, engine.Observer{})
		if err != nil {
			t.Fatal(err)
		}
		defer comm.Close()
		var calls [2]int64
		for i := range calls {
			comm.ResetSchedules()
			comm.Network().ResetCounters()
			plan, err := comm.Initiate(ctx, initiator, s)
			if err != nil {
				t.Fatalf("advertiser=%v: %v", advertiser, err)
			}
			if plan.Workflow.NumTasks() != 6 || len(plan.Allocations) != 6 {
				t.Fatalf("advertiser=%v: plan has %d tasks, %d allocated",
					advertiser, plan.Workflow.NumTasks(), len(plan.Allocations))
			}
			calls[i] = comm.Network().Stats().Calls
		}
		return calls[0], calls[1]
	}
	coldFirst, coldSecond := run(false)
	warmFirst, warmSecond := run(true)
	t.Logf("calls/initiate: cold host %d then %d, warmed by the advertiser %d then %d", coldFirst, coldSecond, warmFirst, warmSecond)
	// The describing sweep replaces the first round's one routed query.
	if want := int64(routed + hosts - 1); coldFirst != want {
		t.Errorf("first session on a cold host: %d round trips, want %d (one describing sweep over %d hosts)", coldFirst, want, hosts)
	}
	if warmFirst != routed {
		t.Errorf("first session, warmed: %d round trips, want %d", warmFirst, routed)
	}
	for name, got := range map[string]int64{"second session from memory": coldSecond, "second session, warmed": warmSecond} {
		if got != remembered {
			t.Errorf("%s: %d round trips, want %d", name, got, remembered)
		}
	}
}
