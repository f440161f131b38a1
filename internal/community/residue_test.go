package community

// Zero residue: a workflow that ends leaves nothing behind on any host —
// no hold, no commitment, no execution run, and so no label, since a label
// lives in the run that consumes it — as soon as its initiator's release
// has landed at each participant, not one lease later. The initiator keeps
// the goal labels in the execution, which ends with Execute, and a label
// that arrives after its run has gone is dropped. The lease is the backstop
// for the releases that never land, and then it clears finished runs and
// their inputs too.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/testutil"
	"openwf/internal/trace"
	"openwf/internal/transport/inmem"
)

// leftovers lists what each host still holds, one line per host that holds
// anything; empty means the community is clean. skip, when non-nil, exempts
// hosts.
func leftovers(c *Community, skip map[proto.Addr]bool) string {
	var sb strings.Builder
	for _, id := range c.Members() {
		h, _ := c.Host(id)
		holds, commits := h.Schedule.Holds(), len(h.Schedule.Commitments())
		runs, labels := h.Exec.Residue()
		if !skip[id] && holds+commits+runs+labels > 0 {
			fmt.Fprintf(&sb, "\n  %s: %d holds, %d commitments, %d runs, %d labels", id, holds, commits, runs, labels)
		}
	}
	return sb.String()
}

// waitClean waits for the links to drain and fails unless every host then
// holds nothing. The wait is wall time, a few seconds at most: far short of
// the five-minute lease on the wall clock, and no time at all on a
// simulated one.
func waitClean(t *testing.T, c *Community) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for leftovers(c, nil) != "" {
		if time.Now().After(deadline) {
			t.Fatalf("residue after the workflow ended:%s", leftovers(c, nil))
		}
		time.Sleep(time.Millisecond)
	}
}

// chainOf builds host00 (initiator, all the knowhow) and one sole provider
// per task of the chain a → t1 → … → g, so the allocation is forced.
func chainOf(t *testing.T, opts Options, durations ...time.Duration) (*Community, spec.Spec) {
	t.Helper()
	testutil.CheckGoroutines(t)
	label := func(i int) model.LabelID {
		switch i {
		case 0:
			return "a"
		case len(durations):
			return "g"
		}
		return model.LabelID(fmt.Sprintf("m%d", i))
	}
	specs := []HostSpec{{ID: "host00"}}
	for i, d := range durations {
		task := fmt.Sprintf("t%d", i+1)
		specs[0].Fragments = append(specs[0].Fragments,
			frag(t, "know-"+task, ctask(task, []model.LabelID{label(i)}, []model.LabelID{label(i + 1)})))
		specs = append(specs, HostSpec{
			ID:       proto.Addr(fmt.Sprintf("host%02d", i+1)),
			Services: []service.Registration{svc(task, d)},
		})
	}
	c, err := New(opts, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"})
}

// TestExecuteLeavesNoResidue: a completed execution's release clears every
// participant and the initiator while the leases still have minutes to
// run.
func TestExecuteLeavesNoResidue(t *testing.T) {
	c := newTestCommunity(t, Options{Engine: testEngineConfig()}, cateringSpecs(t, true, true)...)
	for _, s := range []spec.Spec{
		spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")),
		spec.Must(lbl("lunch ingredients"), lbl("lunch served")),
	} {
		plan, err := c.Initiate(context.Background(), "manager", s)
		if err != nil {
			t.Fatal(err)
		}
		if c.TotalCommitments() != plan.Workflow.NumTasks() {
			t.Fatalf("%d commitments behind a plan of %d tasks", c.TotalCommitments(), plan.Workflow.NumTasks())
		}
		report, err := c.Execute(ctxTimeout(t, 15*time.Second), "manager", plan, nil)
		if err != nil || !report.Completed {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
		waitClean(t, c)
	}
}

// loseReleases drops every frame the initiator sends a participant from
// the moment the last completion notice reaches it: the execution
// completes, and every release that follows is lost.
type loseReleases struct {
	c    *Community
	last proto.Addr
}

func (r *loseReleases) Record(e trace.Event) {
	if e.Dir == trace.Recv && e.Host == "host00" && e.Kind == "task-done" && e.Peer == r.last {
		for _, id := range r.c.Members()[1:] {
			r.c.Network().SetLinkLoss("host00", id, 1)
		}
	}
}

// TestLeaseBackstopClearsFinishedRuns: when the release never arrives, a
// participant keeps its finished run and the inputs it held — until its
// lease lapses, which drops them with the commitment.
func TestLeaseBackstopClearsFinishedRuns(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = 2*time.Second, time.Second
	rec := &loseReleases{last: "host02"}
	c, s := chainOf(t, Options{Clock: sim, Engine: &cfg, Trace: rec}, 10*time.Millisecond, 10*time.Millisecond)
	rec.c = c
	plan, err := c.Initiate(context.Background(), "host00", s)
	if err != nil {
		t.Fatal(err)
	}
	stop := driveClock(sim)
	report, err := c.Execute(ctxTimeout(t, 30*time.Second), "host00", plan, map[model.LabelID][]byte{"a": []byte("go")})
	stop()
	if err != nil || !report.Completed {
		t.Fatalf("report = %+v, err = %v", report, err)
	}
	// The participants never heard; the initiator, which runs no task,
	// holds nothing.
	deadline := time.Now().Add(5 * time.Second)
	for c.Network().Dropped() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d release frames lost, want both participants'", c.Network().Dropped())
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range c.Members() {
		h, _ := c.Host(id)
		want := 1 // a participant's one task: its commitment, its finished run, its input
		if id == "host00" {
			want = 0
		}
		runs, labels := h.Exec.Residue()
		if commits := len(h.Schedule.Commitments()); runs != want || labels != want || commits != want {
			t.Fatalf("%s after the lost release: %d runs, %d labels, %d commitments; want %d of each",
				id, runs, labels, commits, want)
		}
	}
	sim.Advance(auction.DefaultCommitLease + time.Minute)
	waitClean(t, c)
}

// simChain is chainOf's community of two sole providers on a simulated
// clock, with the chain a → t1 → m1 → t2 → g initiated on host00.
func simChain(t *testing.T) (*clock.Sim, *Community, *engine.Plan) {
	t.Helper()
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = 2*time.Second, time.Second
	c, s := chainOf(t, Options{Clock: sim, Engine: &cfg}, 10*time.Millisecond, 10*time.Millisecond)
	plan, err := c.Initiate(context.Background(), "host00", s)
	if err != nil {
		t.Fatal(err)
	}
	return sim, c, plan
}

// executeChain executes simChain's plan and fails unless the execution
// completes with its goal.
func executeChain(t *testing.T, sim *clock.Sim, c *Community, plan *engine.Plan) {
	t.Helper()
	stop := driveClock(sim)
	report, err := c.Execute(ctxTimeout(t, 30*time.Second), "host00", plan, map[model.LabelID][]byte{"a": []byte("go")})
	stop()
	if err != nil || !report.Completed || report.Goals["g"] == nil {
		t.Fatalf("report = %+v, err = %v", report, err)
	}
}

// TestLateLabelTransferLeavesNoResidue: a label transfer that lands after
// its sink has processed the release — t1's output reaching t2's host once
// more — finds no run to consume it and is dropped, not kept for nobody.
func TestLateLabelTransferLeavesNoResidue(t *testing.T) {
	sim, c, plan := simChain(t)
	executeChain(t, sim, c, plan)
	waitClean(t, c)
	h1, _ := c.Host("host01")
	ctx := ctxTimeout(t, 5*time.Second)
	if err := h1.Send(ctx, "host02", plan.WorkflowID, proto.LabelTransfer{Label: "m1", Data: []byte("late"), Producer: "host01"}); err != nil {
		t.Fatal(err)
	}
	// One link and one session queue: host02 serves this request only
	// after it has processed the transfer.
	if _, err := h1.Call(ctx, "host02", plan.WorkflowID, proto.LeaseRefresh{}, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := leftovers(c, nil); got != "" {
		t.Fatalf("residue after a late label transfer:%s", got)
	}
}

// TestLossySelfLinkLeavesNoResidue: the initiator runs no task, so it holds
// nothing for the workflow outside the execution that Execute ends — a
// link to itself that loses every frame strands nothing there.
func TestLossySelfLinkLeavesNoResidue(t *testing.T) {
	sim, c, plan := simChain(t)
	c.Network().SetLinkLoss("host00", "host00", 1)
	executeChain(t, sim, c, plan)
	waitClean(t, c)
}

// TestAbandonedExecutionLeavesNoResidue: a caller that gives up on Execute
// mid-flight — one task running, one waiting for its input — still
// releases every participant, and the interrupted run publishes nothing
// after it.
func TestAbandonedExecutionLeavesNoResidue(t *testing.T) {
	c, s := chainOf(t, Options{Engine: testEngineConfig()}, 300*time.Millisecond, time.Millisecond)
	plan, err := c.Initiate(context.Background(), "host00", s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h1, _ := c.Host("host01")
	go func() {
		defer cancel()
		for h1.Exec.Pending() != 0 { // t1 has not started yet
			time.Sleep(time.Millisecond)
		}
	}()
	if _, err := c.Execute(ctx, "host00", plan, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitClean(t, c)
	// t1 finishes long after its run was dropped; its output must not
	// turn up at t2's host as a label nobody will ever collect.
	time.Sleep(400 * time.Millisecond)
	waitClean(t, c)
}

// TestAbortedExecutionLeavesNoResidue: the sole provider of a task dies
// mid-execution, repair finds no other, the execution aborts — and the
// surviving participant, which had finished its own task, is released
// along with the initiator.
func TestAbortedExecutionLeavesNoResidue(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = 2*time.Second, time.Second
	cfg.CallTimeout, cfg.LeaseRefreshInterval = 5*time.Second, 2*time.Second
	// t2 takes an hour: it is still running, downstream of the finished t1,
	// when its host dies.
	c, s := chainOf(t, Options{Clock: sim, Engine: &cfg}, 10*time.Millisecond, time.Hour)
	plan, err := c.Initiate(context.Background(), "host00", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleFaults([]inmem.Fault{{At: 10 * time.Second, Kind: inmem.FaultCrash, Host: "host02"}}, nil); err != nil {
		t.Fatal(err)
	}
	stop := driveClock(sim)
	report, err := c.Execute(ctxTimeout(t, 60*time.Second), "host00", plan, map[model.LabelID][]byte{"a": []byte("go")})
	stop()
	if err != nil || report.Completed || len(report.Failures) == 0 {
		t.Fatalf("report = %+v, err = %v; want a clean abort", report, err)
	}
	if report.TasksDone != 1 {
		t.Errorf("TasksDone = %d, want t1 finished before the abort", report.TasksDone)
	}
	waitClean(t, c)
}
