package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"openwf/internal/core"
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

// feedback records the failure feedback a Manager reports: how many
// constructions it finished, and each replan's attempt and excluded tasks.
type feedback struct {
	mu            sync.Mutex
	constructions int
	replans       []string
}

func feedbackObserver(cfg *Config) *feedback {
	fb := &feedback{}
	cfg.Observer.ConstructionDone = func(string, core.Result) {
		fb.mu.Lock()
		fb.constructions++
		fb.mu.Unlock()
	}
	cfg.Observer.Replanned = func(_ string, attempt int, excluded []model.TaskID) {
		fb.mu.Lock()
		fb.replans = append(fb.replans, fmt.Sprintf("%d:%v", attempt, excluded))
		fb.mu.Unlock()
	}
	return fb
}

// check fails t unless constructions constructions and the replans want
// (attempt:excluded, in order) were reported, and m counted as many
// replans as were reported.
func (fb *feedback) check(t *testing.T, m *Manager, constructions int, want ...string) {
	t.Helper()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.constructions != constructions || fmt.Sprint(fb.replans) != fmt.Sprint(want) {
		t.Errorf("%d constructions and replans %v, want %d and %v", fb.constructions, fb.replans, constructions, want)
	}
	if got := m.Replans(); got != int64(len(fb.replans)) {
		t.Errorf("Replans() = %d, want the %d the observer saw", got, len(fb.replans))
	}
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

// waitTrigger waits for Execute's trigger LabelTransfer — on the plan's
// initiator, all it sends before the execution runs — failing the test on a
// stall.
func waitTrigger(t *testing.T, f *fakeNet) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		sent := slices.ContainsFunc(f.sent, func(b proto.Body) bool {
			_, ok := b.(proto.LabelTransfer)
			return ok
		})
		f.mu.Unlock()
		if sent {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for Execute's trigger")
		}
		time.Sleep(time.Millisecond)
	}
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
	waitTrigger(t, net)

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
	waitTrigger(t, net)
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
	if got := m.Repairs(); got != 1 {
		t.Errorf("Repairs() = %d, want 1", got)
	}
	m.mu.Lock()
	a1, a2 := plan.Allocations["t1"], plan.Allocations["t2"]
	m.mu.Unlock()
	if a1 != "p2" || a2 != "p2" {
		t.Errorf("post-repair Allocations = %v/%v, want p2/p2", a1, a2)
	}
	// Both tasks were re-homed, their routes on their awards, and no kept
	// task feeds them: the repair sends no plan request.
	if n := len(net.segs); n != 0 {
		t.Errorf("%d plan segments sent, want none", n)
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
	waitTrigger(t, net)
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
	// The kept t1 feeds t2's new run: it alone gets a segment, and
	// re-publishes.
	if segs := collectSegs(t, net.segs, 1); segs[0].Task != "t1" || len(net.segs) != 0 {
		t.Errorf("plan segments %v and %d more, want t1's alone", segs, len(net.segs))
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
	waitTrigger(t, net)
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

// TestRepairHonoursMaxTasks: the first plan is the one-task alt on p1; p2
// knows the chain t1 → t2 and becomes capable of it only once p1 is dead.
// A repair's reconstruction is checked against the constraints as a
// session's is, so with MaxTasks 1 it must abort, not repair onto two.
func TestRepairHonoursMaxTasks(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("p1", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "alt", "a", "g")},
		capable:   map[model.TaskID]bool{"alt": true},
		services:  1,
	})
	net.add("p2", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "g")},
		capable:   map[model.TaskID]bool{"t1": false, "t2": false},
		services:  2,
	})
	cfg := repairConfig()
	cfg.Constraints = spec.Constraints{MaxTasks: 1}
	events := repairObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Workflow.Task("alt"); !ok || plan.Workflow.NumTasks() != 1 {
		t.Fatalf("initial workflow:\n%v", plan.Workflow)
	}
	done, join := startExecution(m, plan)
	waitTrigger(t, net)
	net.setCapable("p2", "t1", true)
	net.setCapable("p2", "t2", true)
	net.setDown("p1")

	select {
	case <-done:
	case ev := <-events:
		m.mu.Lock()
		n := plan.Workflow.NumTasks()
		m.mu.Unlock()
		t.Fatalf("repaired %+v onto a workflow of %d tasks, over MaxTasks 1", ev, n)
	case <-time.After(5 * time.Second):
		t.Fatal("execution did not abort")
	}
	report, err := join()
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed || len(report.Failures) == 0 || !strings.Contains(report.Failures[0], "limit 1") {
		t.Errorf("report = %+v, want a plan-repair abort on the task limit", report)
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
//
// A repair's reconstruction is the session's: it is reported as a
// construction and a replan, and it may run as often as a session may
// replan. In the last case the first alternative's only provider declines
// every bid on it, and a second reconstruction finds another.
func TestRepairReconstructsAroundDeadProvider(t *testing.T) {
	for _, describes := range []bool{false, true} {
		t.Run(fmt.Sprintf("describes=%v", describes), func(t *testing.T) {
			testRepairReconstructsAroundDeadProvider(t, describes)
		})
	}
	t.Run("second reconstruction", testRepairReconstructsTwice)
}

func testRepairReconstructsTwice(t *testing.T) {
	net := newFakeNet("init")
	net.add("init", &fakeMember{})
	net.add("p1", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "g")},
		capable:   map[model.TaskID]bool{"t1": true, "t2": true},
		services:  2,
	})
	// Neither alternative is feasible before the fault, and alt's provider
	// then bids for nothing.
	net.add("p2", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "alt", "a", "g")},
		capable:   map[model.TaskID]bool{"alt": false},
		services:  1,
	})
	net.add("p3", &fakeMember{
		fragments: []*model.Fragment{mkFrag(t, "b1", "a", "n"), mkFrag(t, "b2", "n", "g")},
		capable:   map[model.TaskID]bool{"b1": false, "b2": false},
		services:  2,
	})
	cfg := repairConfig()
	events := repairObserver(&cfg)
	fb := feedbackObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	done, join := startExecution(m, plan)
	waitTrigger(t, net)
	net.setCapable("p2", "alt", true)
	net.setDeclineAll("p2", true)
	net.setCapable("p3", "b1", true)
	net.setCapable("p3", "b2", true)
	net.setDown("p1")

	ev := waitRepair(t, events)
	if fmt.Sprint(ev.tasks) != "[b1 b2]" {
		t.Errorf("repaired tasks %v, want [b1 b2]", ev.tasks)
	}
	fb.check(t, m, 3, "1:[t1 t2]", "2:[alt]")
	m.mu.Lock()
	alloc := fmt.Sprint(plan.Allocations)
	m.mu.Unlock()
	if alloc != "map[b1:p3 b2:p3]" {
		t.Errorf("post-repair Allocations = %s, want b1 and b2 on p3", alloc)
	}
	m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
	<-done
	if report, err := join(); err != nil || !report.Completed {
		t.Fatalf("report = %+v, err = %v", report, err)
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
	fb := feedbackObserver(&cfg)
	m := NewManager(net, cfg)
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Fatalf("initial workflow:\n%v", plan.Workflow)
	}
	fb.check(t, m, 1)

	done, join := startExecution(m, plan)
	waitTrigger(t, net)
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
	// The reconstruction is reported as the session's are.
	fb.check(t, m, 2, "1:[t1 t2]")
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
		// re-allocation of alt, which memory knows one offerer of: a held
		// award to p2 and no call for bids.
		var after []string
		net.mu.Lock()
		for _, c := range net.log {
			switch b := c.body.(type) {
			case proto.FragmentQuery:
				after = nil
			case proto.CallForBidsBatch:
				after = append(after, "cfb:"+string(c.to))
			case proto.Award:
				if b.Hold {
					after = append(after, "held:"+string(c.to))
				}
			}
		}
		net.mu.Unlock()
		if len(after) != 1 || after[0] != "held:p2" {
			t.Errorf("after the reconstruction, %v, want one held award to p2", after)
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

// TestRepairPlansOnlyKeptFeeders: the chain a → t1 → m → t2 → n → t3 → g
// runs on p1, p2 and p3, and p2 dies. The repair's award for t2 carries
// t2's routes, and the one plan request goes to t1's executor, naming t1
// alone: t3's executor is told nothing. When the first re-auction wins one
// task and fails another, its win is cancelled before the reconstruction,
// and the execution completes on the reconstructed workflow.
func TestRepairPlansOnlyKeptFeeders(t *testing.T) {
	t.Run("re-homed", func(t *testing.T) {
		net := newFakeNet("init")
		net.add("init", &fakeMember{fragments: []*model.Fragment{
			mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "n"), mkFrag(t, "t3", "n", "g"),
		}})
		net.add("p1", &fakeMember{capable: map[model.TaskID]bool{"t1": true}, services: 1})
		net.add("p2", &fakeMember{capable: map[model.TaskID]bool{"t2": true}, services: 1})
		net.add("p3", &fakeMember{capable: map[model.TaskID]bool{"t3": true}, services: 1})
		// p4 can take t2 but sits the first auction out.
		net.add("p4", &fakeMember{capable: map[model.TaskID]bool{"t2": true}, services: 1, declineAll: true})
		cfg := repairConfig()
		events := repairObserver(&cfg)
		m := NewManager(net, cfg)
		plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatal(err)
		}
		done, join := startExecution(m, plan)
		waitTrigger(t, net)
		net.clearLog()
		net.setDeclineAll("p4", false)
		net.setDown("p2")
		waitRepair(t, events)

		if got, want := fmt.Sprint(awardRoutes(net)), "[p4:t2:[{n p3}]]"; got != want {
			t.Errorf("repair awards %s, want %s: t2's routes on its award", got, want)
		}
		if got, want := fmt.Sprint(planRequests(net)), "[p1:[{t1 init [{m p4}]}]]"; got != want {
			t.Errorf("plan requests %s, want %s: t1's executor alone, naming t1", got, want)
		}
		m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
		<-done
		if report, err := join(); err != nil || !report.Completed {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
	})

	// p2 runs t2 and t3. Only p4 can take t2 over and nobody t3, so the
	// first re-auction wins t2 alone; the reconstruction replaces t3 with
	// p5's alt, which becomes feasible with the fault.
	t.Run("reconstructed", func(t *testing.T) {
		net := newFakeNet("init")
		net.add("init", &fakeMember{fragments: []*model.Fragment{
			mkFrag(t, "t1", "a", "m"), mkFrag(t, "t2", "m", "n"), mkFrag(t, "t3", "n", "g"),
		}})
		net.add("p1", &fakeMember{capable: map[model.TaskID]bool{"t1": true}, services: 1})
		net.add("p2", &fakeMember{capable: map[model.TaskID]bool{"t2": true, "t3": true}, services: 2})
		net.add("p4", &fakeMember{capable: map[model.TaskID]bool{"t2": true}, services: 1, declineAll: true})
		net.add("p5", &fakeMember{
			fragments: []*model.Fragment{mkFrag(t, "alt", "n", "g")},
			capable:   map[model.TaskID]bool{"alt": false},
			services:  1,
		})
		cfg := repairConfig()
		cfg.WindowRetries = 0 // one re-auction try: one Cancel for its win
		events := repairObserver(&cfg)
		m := NewManager(net, cfg)
		plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Workflow.NumTasks() != 3 {
			t.Fatalf("initial workflow:\n%v", plan.Workflow)
		}
		done, join := startExecution(m, plan)
		waitTrigger(t, net)
		net.clearLog()
		net.setDeclineAll("p4", false)
		net.setCapable("p5", "alt", true)
		net.setDown("p2")
		ev := waitRepair(t, events)
		if fmt.Sprint(ev.tasks) != "[alt t2]" {
			t.Errorf("repaired tasks %v, want [alt t2]", ev.tasks)
		}

		net.mu.Lock()
		reconstructed := -1
		for _, c := range net.log {
			if _, ok := c.body.(proto.FragmentQuery); ok {
				reconstructed = c.at
				break
			}
		}
		var cancels []int
		for _, s := range net.sentTo {
			if c, ok := s.body.(proto.Cancel); ok && s.to == "p4" && slices.Contains(c.Tasks, "t2") {
				cancels = append(cancels, s.at)
			}
		}
		net.mu.Unlock()
		if len(cancels) != 1 || reconstructed < 0 || cancels[0] > reconstructed {
			t.Errorf("t2's first win cancelled at %v, the reconstruction at %d: want one Cancel before it", cancels, reconstructed)
		}
		// The first re-auction's award routes n to nobody: t3 failed.
		if got, want := fmt.Sprint(awardRoutes(net)), "[p4:t2:[] p4:t2:[{n p5}] p5:alt:[{g init}]]"; got != want {
			t.Errorf("repair awards %s, want %s", got, want)
		}
		if got, want := fmt.Sprint(planRequests(net)), "[p1:[{t1 init [{m p4}]}]]"; got != want {
			t.Errorf("plan requests %s, want %s", got, want)
		}
		m.OnLabelTransfer(plan.WorkflowID, proto.LabelTransfer{Label: "g"})
		<-done
		if report, err := join(); err != nil || !report.Completed {
			t.Fatalf("report = %+v, err = %v", report, err)
		}
	})
}

// awardRoutes lists the Award calls logged so far as host:tasks:routes.
func awardRoutes(f *fakeNet) []string {
	var out []string
	for _, c := range awards(f) {
		a := c.body.(proto.Award)
		tasks := []model.TaskID{a.Meta.Task}
		for _, meta := range a.More {
			tasks = append(tasks, meta.Task)
		}
		out = append(out, fmt.Sprintf("%s:%s:%v", c.to, strings.Trim(fmt.Sprint(tasks), "[]"), a.Routes))
	}
	return out
}

// planRequests lists the Plan calls logged so far as host:segments.
func planRequests(f *fakeNet) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, c := range f.log {
		if p, ok := c.body.(proto.Plan); ok {
			out = append(out, fmt.Sprintf("%s:%v", c.to, p.Segments))
		}
	}
	return out
}
