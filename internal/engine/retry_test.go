package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// TestRetrySlot: one host's consecutive sessions fill distinct retry
// bands, and two hosts' sessions of the same ordinal need not share one.
func TestRetrySlot(t *testing.T) {
	band := func(wfID string) int { return retrySlot(wfID) % retryBandPeriod }
	for _, host := range []string{"manager", "chef", "host00", "init"} {
		seen := make(map[int]string)
		for n := 1; n <= retryBandPeriod; n++ {
			id := fmt.Sprintf("%s/%d", host, n)
			if other, dup := seen[band(id)]; dup {
				t.Errorf("%s and %s share band %d", other, id, band(id))
			}
			seen[band(id)] = id
		}
	}
	for _, tc := range []struct {
		a, b string
		same bool
	}{
		{"manager/1", "chef/1", false},
		{"manager/2", "chef/2", false},
		{"manager/1", "manager/1", true},
		{"manager/1", "manager/9", true}, // one period on
	} {
		if got := band(tc.a) == band(tc.b); got != tc.same {
			t.Errorf("%s in band %d, %s in band %d; same = %v, want %v", tc.a, band(tc.a), tc.b, band(tc.b), got, tc.same)
		}
	}
}

// bandNet answers the next decline calls for bids to peer with a decline
// of every task, and records the first window of every call for bids peer
// is sent.
type bandNet struct {
	*fakeNet
	decline int
	starts  []time.Time
}

func (b *bandNet) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	cfb, ok := body.(proto.CallForBidsBatch)
	if !ok || to != "peer" {
		return b.fakeNet.Call(ctx, to, workflow, body, timeout)
	}
	b.mu.Lock()
	b.starts = append(b.starts, cfb.Metas[0].Start)
	decline := b.decline > 0
	if decline {
		b.decline--
	}
	b.mu.Unlock()
	if !decline {
		return b.fakeNet.Call(ctx, to, workflow, body, timeout)
	}
	var reply proto.BidBatch
	for _, meta := range cfb.Metas {
		reply.Declines = append(reply.Declines, meta.Task)
	}
	return reply, nil
}

// TestRepairRetriesInItsAllocationBand: a workflow's window retry lands in
// one band whether its allocation or, once it runs, its repair needs it —
// on a frozen clock the two retries solicit the very same window.
func TestRepairRetriesInItsAllocationBand(t *testing.T) {
	net := &bandNet{fakeNet: chainNet(t), decline: 1}
	net.clk = clock.NewSim(time.Unix(1000, 0))
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	band := m.retryPostpone(1, retrySlot(plan.WorkflowID))
	if len(net.starts) != 2 || net.starts[1].Sub(net.starts[0]) != band {
		t.Fatalf("allocation solicited peer at %v, want a retry %v after the first try", net.starts, band)
	}

	net.mu.Lock()
	net.decline = 1
	net.mu.Unlock()
	ex := &execution{
		plan:          plan,
		remaining:     map[model.TaskID]struct{}{"t1": {}, "t2": {}},
		finishedTasks: make(map[model.TaskID]struct{}),
		goalWant:      1,
		done:          make(chan struct{}),
	}
	if err := m.repairPlan(context.Background(), ex, nil, []model.TaskID{"t2"}); err != nil {
		t.Fatal(err)
	}
	if len(net.starts) != 4 || !net.starts[3].Equal(net.starts[1]) {
		t.Fatalf("repair solicited peer at %v, want its retry in the allocation's band (%v)", net.starts[2:], net.starts[1])
	}
	if plan.Allocations["t2"] != "peer" {
		t.Errorf("t2 repaired onto %q, want peer", plan.Allocations["t2"])
	}
}
