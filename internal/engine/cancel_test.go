package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// slowBidNet is a fakeNet whose capable member holds the call for bids
// open until the caller gives up (a blockCFB gate that never opens), so
// the session sits mid-auction — the window in which we cancel.
func slowBidNet(t *testing.T) *fakeNet {
	t.Helper()
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "only", "a", "g")},
		capable:   map[model.TaskID]bool{"only": true},
		blockCFB:  map[model.TaskID]chan struct{}{"only": make(chan struct{})},
		services:  1,
	})
	return net
}

// TestInitiateCanceledMidAuction: cancellation inside a call for bids
// returns context.Canceled promptly instead of waiting the call out.
func TestInitiateCanceledMidAuction(t *testing.T) {
	net := slowBidNet(t)
	cfg := testConfig()
	cfg.Feasibility = false
	m := NewManager(net, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := m.Initiate(ctx, spec.Must(lbl("a"), lbl("g")))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v; the held call for bids outlived its context", elapsed)
	}
}

// TestInitiateCanceledBeforeStart: an already-canceled context never
// reaches the community.
func TestInitiateCanceledBeforeStart(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Initiate(ctx, spec.Must(lbl("a"), lbl("g"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.calls != 0 {
		t.Errorf("%d community calls went out under a canceled context", net.calls)
	}
}

// TestExecuteCanceledMidExecution: cancellation while waiting for the
// community to finish returns context.Canceled promptly with the partial
// progress report.
func TestExecuteCanceledMidExecution(t *testing.T) {
	net := chainNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t1"})
		cancel()
	}()
	start := time.Now()
	report, err := m.Execute(ctx, plan, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
	if report == nil || report.Completed {
		t.Fatalf("report = %+v, want partial progress", report)
	}
	if report.TasksDone != 1 {
		t.Errorf("TasksDone = %d, want the 1 task finished before cancel", report.TasksDone)
	}
}
