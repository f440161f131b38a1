package evalgen

import (
	"context"
	"testing"
)

// TestDiscoverySmoke is the CI smoke row for the Discovery grid: on a
// 40-host community with 5 relevant providers, index-routed solicitation
// must construct the same-size plan as broadcast while spending strictly
// fewer Call round trips. The root BenchmarkDiscoveryInitiate runs the
// same fixture at 10 and 100 hosts.
func TestDiscoverySmoke(t *testing.T) {
	ctx := context.Background()
	run := func(indexed bool) int64 {
		t.Helper()
		comm, initiator, s, err := DiscoverySetup(ctx, 40, 5, 6, indexed, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer comm.Close()
		comm.Network().ResetCounters()
		plan, err := comm.Initiate(ctx, initiator, s)
		if err != nil {
			t.Fatalf("indexed=%v: %v", indexed, err)
		}
		if plan.Workflow.NumTasks() != 6 || len(plan.Allocations) != 6 {
			t.Fatalf("indexed=%v: plan has %d tasks, %d allocated",
				indexed, plan.Workflow.NumTasks(), len(plan.Allocations))
		}
		return comm.Network().Stats().Calls
	}
	indexedCalls := run(true)
	broadcastCalls := run(false)
	t.Logf("calls/initiate: indexed=%d broadcast=%d", indexedCalls, broadcastCalls)
	if indexedCalls >= broadcastCalls {
		t.Errorf("index routing saved nothing: indexed=%d broadcast=%d", indexedCalls, broadcastCalls)
	}
}
