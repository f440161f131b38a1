package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// repairConfig speeds the lease refresher up enough to act as a failure
// detector within a unit test.
func repairConfig() Config {
	cfg := testConfig()
	cfg.LeaseRefreshInterval = 15 * time.Millisecond
	return cfg
}

// repairEvent captures one Observer.Repaired invocation.
type repairEvent struct {
	dead  []proto.Addr
	tasks []model.TaskID
}

func repairObserver(cfg *Config) <-chan repairEvent {
	events := make(chan repairEvent, 8)
	cfg.Observer.Repaired = func(_ string, dead []proto.Addr, tasks []model.TaskID) {
		events <- repairEvent{dead: dead, tasks: tasks}
	}
	return events
}

func waitRepair(t *testing.T, events <-chan repairEvent) repairEvent {
	t.Helper()
	select {
	case ev := <-events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for plan repair")
		return repairEvent{}
	}
}

// collectSegs drains n PlanSegment deliveries from the fake's segment
// channel, failing the test on a stall.
func collectSegs(t *testing.T, ch <-chan proto.PlanSegment, n int) []proto.PlanSegment {
	t.Helper()
	out := make([]proto.PlanSegment, 0, n)
	for len(out) < n {
		select {
		case s := <-ch:
			out = append(out, s)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d plan segments", len(out), n)
		}
	}
	return out
}

// startExecution launches Execute on its own goroutine and returns the
// channels to join it.
func startExecution(m *Manager, plan *Plan) (<-chan struct{}, func() (*Report, error)) {
	done := make(chan struct{})
	var (
		report  *Report
		execErr error
	)
	go func() {
		defer close(done)
		report, execErr = m.Execute(context.Background(), plan,
			map[model.LabelID][]byte{"a": []byte("go")})
	}()
	return done, func() (*Report, error) { return report, execErr }
}

func TestRefresherSendsLeaseRefresh(t *testing.T) {
	net := chainNet(t)
	net.segs = make(chan proto.PlanSegment, 32)
	m := NewManager(net, repairConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	done, join := startExecution(m, plan)
	collectSegs(t, net.segs, 2)

	deadline := time.Now().Add(5 * time.Second)
	for {
		net.mu.Lock()
		n := len(net.refreshes)
		net.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no LeaseRefresh observed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	net.mu.Lock()
	first := net.refreshes[0]
	net.mu.Unlock()
	if len(first.Tasks) != 2 || first.Tasks[0] != "t1" || first.Tasks[1] != "t2" {
		t.Errorf("LeaseRefresh.Tasks = %v, want [t1 t2]", first.Tasks)
	}

	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t1"})
	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t2"})
	m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
	<-done
	report, err := join()
	if err != nil || !report.Completed {
		t.Fatalf("report = %+v, err = %v", report, err)
	}
}

func TestRepairReallocatesAfterExecutorDeath(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	frags := func() []*model.Fragment {
		return []*model.Fragment{
			mkFrag(t, "t1", "a", "m"),
			mkFrag(t, "t2", "m", "g"),
		}
	}
	net.add("p1", &fakeMember{
		fragments: frags(),
		capable:   map[model.TaskID]bool{"t1": true, "t2": true},
		services:  2,
	})
	// p2 can run everything but sits the first auction out, so the whole
	// workflow deterministically lands on p1.
	net.add("p2", &fakeMember{
		capable:    map[model.TaskID]bool{"t1": true, "t2": true},
		services:   2,
		declineAll: true,
	})
	net.segs = make(chan proto.PlanSegment, 32)

	cfg := repairConfig()
	events := repairObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "p1" || plan.Allocations["t2"] != "p1" {
		t.Fatalf("Allocations = %v, want everything on p1", plan.Allocations)
	}

	done, join := startExecution(m, plan)
	collectSegs(t, net.segs, 2)
	// Open p2 up before killing p1 so the refresher can only ever observe
	// a repairable community.
	net.setDeclineAll("p2", false)
	net.setDown("p1")

	ev := waitRepair(t, events)
	if len(ev.dead) != 1 || ev.dead[0] != "p1" {
		t.Errorf("repaired dead = %v, want [p1]", ev.dead)
	}
	if len(ev.tasks) != 2 || ev.tasks[0] != "t1" || ev.tasks[1] != "t2" {
		t.Errorf("repaired tasks = %v, want [t1 t2]", ev.tasks)
	}
	m.mu.Lock()
	a1, a2 := plan.Allocations["t1"], plan.Allocations["t2"]
	m.mu.Unlock()
	if a1 != "p2" || a2 != "p2" {
		t.Errorf("post-repair Allocations = %v/%v, want p2/p2", a1, a2)
	}

	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t1"})
	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t2"})
	m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g", Data: []byte("done")})
	<-done
	report, err := join()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}
}

func TestRepairReauctionsLostLease(t *testing.T) {
	net := chainNet(t)
	net.segs = make(chan proto.PlanSegment, 32)
	cfg := repairConfig()
	events := repairObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	done, join := startExecution(m, plan)
	collectSegs(t, net.segs, 2)
	// The executor swept t2's lease (an expired commitment): the next
	// refresh reports it missing and the task is re-auctioned — the host
	// itself is alive and keeps t1.
	net.loseLease("peer", "t2")

	ev := waitRepair(t, events)
	if len(ev.dead) != 0 {
		t.Errorf("repaired dead = %v, want none", ev.dead)
	}
	if len(ev.tasks) != 1 || ev.tasks[0] != "t2" {
		t.Errorf("repaired tasks = %v, want [t2]", ev.tasks)
	}
	m.mu.Lock()
	a2 := plan.Allocations["t2"]
	m.mu.Unlock()
	if a2 != "peer" {
		t.Errorf("post-repair Allocations[t2] = %q, want peer", a2)
	}

	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t1"})
	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "t2"})
	m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
	<-done
	report, err := join()
	if err != nil || !report.Completed {
		t.Fatalf("report = %+v, err = %v", report, err)
	}
}

func TestRepairAbortsWhenUnrecoverable(t *testing.T) {
	net := chainNet(t)
	net.segs = make(chan proto.PlanSegment, 32)
	cfg := repairConfig()
	events := repairObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	done, join := startExecution(m, plan)
	collectSegs(t, net.segs, 2)
	// The only capable executor dies and nobody else offers the
	// fragments: repair cannot re-home the tasks and reconstruction finds
	// no alternative, so the execution must abort cleanly instead of
	// waiting for goals that can never arrive.
	net.setDown("peer")

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("execution did not abort")
	}
	report, err := join()
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed {
		t.Fatalf("report = %+v, want aborted", report)
	}
	if len(report.Failures) == 0 || !strings.Contains(report.Failures[0], "plan repair") {
		t.Errorf("Failures = %v, want a plan-repair abort", report.Failures)
	}
	select {
	case ev := <-events:
		t.Errorf("unexpected repair event %+v", ev)
	default:
	}
}

// TestRepairReconstructsAroundDeadProvider runs against a community that
// ignores Describe (repair then broadcasts, as it always did) and against
// one that describes itself. There repair starts from doubt — p2 gained
// the replacement service after describing itself to the session that
// built the plan, and routing by that memory would abort a repairable
// workflow — so the first re-auction solicits every survivor, the
// reconstruction's first sweep asks them all again, and the re-auction
// that follows solicits only the member offering the replacement task.
func TestRepairReconstructsAroundDeadProvider(t *testing.T) {
	for _, describes := range []bool{false, true} {
		t.Run(fmt.Sprintf("describes=%v", describes), func(t *testing.T) {
			testRepairReconstructsAroundDeadProvider(t, describes)
		})
	}
}

func testRepairReconstructsAroundDeadProvider(t *testing.T, describes bool) {
	net := newFakeNet("init")
	net.describes = describes
	net.add("init", &fakeMember{})
	net.add("p1", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "t1", "a", "m"),
			mkFrag(t, "t2", "m", "g"),
		},
		capable:  map[model.TaskID]bool{"t1": true, "t2": true},
		services: 2,
	})
	// p2 knows a one-task alternative route but is not capable of it
	// until after the fault — the initial construction must pick p1's
	// chain, and only the repair-time reconstruction can use alt.
	net.add("p2", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "alt", "a", "g")},
		capable:   map[model.TaskID]bool{"alt": false},
		services:  2,
	})
	net.segs = make(chan proto.PlanSegment, 32)

	cfg := repairConfig()
	events := repairObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Fatalf("initial workflow:\n%v", plan.Workflow)
	}

	done, join := startExecution(m, plan)
	collectSegs(t, net.segs, 2)
	// Flip capability before the kill: a refresh between the two fault
	// injections must still find a repairable community.
	net.setCapable("p2", "alt", true)
	net.setDown("p1")

	ev := waitRepair(t, events)
	if len(ev.dead) != 1 || ev.dead[0] != "p1" {
		t.Errorf("repaired dead = %v, want [p1]", ev.dead)
	}
	if len(ev.tasks) != 1 || ev.tasks[0] != "alt" {
		t.Errorf("repaired tasks = %v, want [alt]", ev.tasks)
	}
	m.mu.Lock()
	nTasks := plan.Workflow.NumTasks()
	_, hasAlt := plan.Workflow.Task("alt")
	altHost := plan.Allocations["alt"]
	m.mu.Unlock()
	if nTasks != 1 || !hasAlt {
		t.Fatalf("post-repair workflow has %d tasks, alt present = %v", nTasks, hasAlt)
	}
	if altHost != "p2" {
		t.Errorf("Allocations[alt] = %q, want p2", altHost)
	}
	if describes {
		// The log ends: the reconstruction's queries, then the
		// re-auction of alt.
		var after []string
		net.mu.Lock()
		for _, c := range net.log {
			switch c.body.(type) {
			case proto.FragmentQuery:
				after = nil
			case proto.CallForBidsBatch:
				after = append(after, string(c.to))
			}
		}
		net.mu.Unlock()
		if len(after) != 1 || after[0] != "p2" {
			t.Errorf("after the reconstruction, bids were solicited from %v, want only p2", after)
		}
	}

	m.OnTaskDone(plan.WorkflowID, proto.TaskDone{Task: "alt"})
	m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g", Data: []byte("via alt")})
	<-done
	report, err := join()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("report = %+v", report)
	}
}
