package exec

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
)

var t0 = time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)

// sentRecorder captures outbound envelopes.
type sentRecorder struct {
	mu   sync.Mutex
	msgs []sent
}

type sent struct {
	to  proto.Addr
	env proto.Envelope
}

func (r *sentRecorder) send(_ context.Context, to proto.Addr, env proto.Envelope) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, sent{to, env})
	return nil
}

func (r *sentRecorder) waitFor(t *testing.T, pred func(sent) bool, timeout time.Duration) sent {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		for _, m := range r.msgs {
			if pred(m) {
				r.mu.Unlock()
				return m
			}
		}
		r.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("message never sent; have %v", r.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *sentRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.msgs))
	for _, m := range r.msgs {
		out = append(out, string(m.to)+":"+m.env.Body.Kind())
	}
	return out
}

func (r *sentRecorder) count(pred func(sent) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.msgs {
		if pred(m) {
			n++
		}
	}
	return n
}

// waitFinished waits until every named run of "wf" has finished; a
// success sends no TaskDone, so the manager is asked, as a lease refresh
// would ask it.
func waitFinished(t *testing.T, mgr *Manager, timeout time.Duration, tasks ...model.TaskID) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for len(mgr.Finished("wf", tasks)) < len(tasks) {
		if time.Now().After(deadline) {
			t.Fatalf("finished %v of %v", mgr.Finished("wf", tasks), tasks)
		}
		time.Sleep(time.Millisecond)
	}
}

// rig assembles an execution manager around a real-clock host.
type rig struct {
	mgr      *Manager
	services *service.Manager
	rec      *sentRecorder
	clk      clock.Clock
}

func newRig(t *testing.T, mobility space.Mobility, regs ...service.Registration) *rig {
	t.Helper()
	clk := clock.New()
	services := service.NewManager(clk)
	for _, reg := range regs {
		if err := services.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	if mobility == nil {
		mobility = space.Static{}
	}
	rec := &sentRecorder{}
	return &rig{
		mgr:      NewManager("self", clk, services, mobility, rec.send),
		services: services,
		rec:      rec,
		clk:      clk,
	}
}

func commitment(task string, start time.Time, inputs, outputs []model.LabelID) schedule.Commitment {
	return schedule.Commitment{
		Workflow: "wf", Task: model.TaskID(task),
		Start: start, End: start.Add(time.Second), TravelStart: start,
		Meta: proto.TaskMeta{
			Task: model.TaskID(task), Mode: model.Conjunctive,
			Inputs: inputs, Outputs: outputs,
			Start: start, End: start.Add(time.Second),
		},
	}
}

// seg routes each output label of task to its sinks, in label order.
func seg(task string, initiator proto.Addr, sinks map[model.LabelID][]proto.Addr) proto.PlanSegment {
	var routes []proto.Route
	for _, l := range slices.Sorted(maps.Keys(sinks)) {
		for _, to := range sinks[l] {
			routes = append(routes, proto.Route{Label: l, To: to})
		}
	}
	return proto.PlanSegment{Task: model.TaskID(task), Initiator: initiator, Routes: routes}
}

func TestExecutesWhenConditionsMet(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
		Fn: func(inv service.Invocation) (service.Outputs, error) {
			return service.Outputs{"out": append([]byte("got:"), inv.Inputs["in"]...)}, nil
		},
	})
	now := time.Now()
	r.mgr.Register("wf", commitment("t", now, []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}}))
	if r.mgr.Pending() != 1 {
		t.Fatalf("Pending = %d", r.mgr.Pending())
	}
	// Not started: input missing.
	time.Sleep(5 * time.Millisecond)
	if got := r.rec.count(func(s sent) bool { return s.env.Body.Kind() == "label-transfer" }); got != 0 {
		t.Fatal("executed without inputs")
	}
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Data: []byte("X"), Producer: "boss"})

	lt := r.rec.waitFor(t, func(s sent) bool {
		return s.to == "peer" && s.env.Body.Kind() == "label-transfer"
	}, time.Second)
	body := lt.env.Body.(proto.LabelTransfer)
	if string(body.Data) != "got:X" {
		t.Errorf("output data = %q", body.Data)
	}
	waitFinished(t, r.mgr, time.Second, "t")
	if got := r.rec.count(func(s sent) bool { return s.env.Body.Kind() == "task-done" }); got != 0 {
		t.Errorf("%d task-done sent for a success, want none", got)
	}
}

func TestWaitsForStartTime(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	start := time.Now().Add(50 * time.Millisecond)
	r.mgr.Register("wf", commitment("t", start, []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}}))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})

	time.Sleep(10 * time.Millisecond)
	if got := r.rec.count(func(s sent) bool { return s.env.Body.Kind() == "label-transfer" }); got != 0 {
		t.Fatal("executed before the window opened")
	}
	r.rec.waitFor(t, func(s sent) bool { return s.env.Body.Kind() == "label-transfer" }, time.Second)
	if time.Now().Before(start) {
		t.Error("finished before start")
	}
}

// TestRoutedRunArmsItsWindowWithItsInputs: a run whose routes rode on its
// award arms no timer until its inputs are complete — an award that is
// never executed costs the clock nothing — then one for its window, and
// executes when it opens. A run with no inputs arms its window at once.
func TestRoutedRunArmsItsWindowWithItsInputs(t *testing.T) {
	sim := clock.NewSim(t0)
	services := service.NewManager(sim)
	for _, task := range []model.TaskID{"t", "u"} {
		if err := services.Register(service.Registration{Descriptor: service.Descriptor{Task: task, Specialization: 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	rec := &sentRecorder{}
	mgr := NewManager("self", sim, services, space.Static{}, rec.send)
	defer mgr.Close()
	start := t0.Add(time.Minute)
	routed := func(task string) proto.PlanSegment {
		return seg(task, "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}})
	}

	mgr.Register("wf", commitment("t", start, []model.LabelID{"in"}, []model.LabelID{"out"}), routed("t"))
	if got := sim.PendingWaiters(); got != 0 {
		t.Fatalf("%d timers armed by a routed award without its input, want none", got)
	}
	mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	if got := sim.PendingWaiters(); got != 1 {
		t.Fatalf("%d timers once the input is in, want the window's one", got)
	}
	mgr.Register("wf", commitment("u", start, nil, []model.LabelID{"out"}), routed("u"))
	if got := sim.PendingWaiters(); got != 2 {
		t.Fatalf("%d timers with an input-less run registered, want its window's too", got)
	}

	sim.AdvanceTo(start)
	waitFinished(t, mgr, 5*time.Second, "t", "u")
}

// TestLabelBeforeAwardDropped: a label that arrives before the run that
// consumes it is registered is dropped.
func TestLabelBeforeAwardDropped(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	if runs, labels := r.mgr.Residue(); runs != 0 || labels != 0 {
		t.Fatalf("a label with no run to consume it: %d runs, %d labels held", runs, labels)
	}
}

func TestPlanForUnknownTaskDropped(t *testing.T) {
	r := newRig(t, nil)
	r.mgr.SetPlan("wf", seg("ghost", "boss", nil))
	if r.mgr.Pending() != 0 {
		t.Error("ghost plan created a run")
	}
}

func TestServiceFailureReported(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
		Fn: func(service.Invocation) (service.Outputs, error) {
			return nil, errors.New("boom")
		},
	})
	now := time.Now()
	r.mgr.Register("wf", commitment("t", now, []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", nil))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	m := r.rec.waitFor(t, func(s sent) bool { return s.env.Body.Kind() == "task-done" }, time.Second)
	td := m.env.Body.(proto.TaskDone)
	if td.Err == "" {
		t.Error("failure not reported")
	}
}

func TestDisjunctiveSingleInputSuffices(t *testing.T) {
	// Construction prunes disjunctive tasks to one input; the
	// commitment's meta carries exactly that input.
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	c := commitment("t", time.Now(), []model.LabelID{"chosen"}, []model.LabelID{"out"})
	c.Meta.Mode = model.Disjunctive
	r.mgr.Register("wf", c, seg("t", "boss", nil))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "chosen", Producer: "boss"})
	waitFinished(t, r.mgr, time.Second, "t")
}

func TestCancelStopsRun(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	start := time.Now().Add(30 * time.Millisecond)
	r.mgr.Register("wf", commitment("t", start, []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}}))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	r.mgr.Cancel("wf", "t")
	if r.mgr.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel", r.mgr.Pending())
	}
	time.Sleep(60 * time.Millisecond)
	if got := r.rec.snapshot(); len(got) != 0 {
		t.Errorf("canceled run executed and sent %v", got)
	}
}

// TestCancelDropsStartedRun: a run is dropped whatever its state, and an
// invocation in flight when its run is dropped publishes nothing — the
// commitment it served is gone, and with it the duty to hand outputs on.
func TestCancelDropsStartedRun(t *testing.T) {
	started, finish := make(chan struct{}), make(chan struct{})
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
		Fn: func(service.Invocation) (service.Outputs, error) {
			close(started)
			<-finish
			return service.Outputs{"out": []byte("late")}, nil
		},
	})
	r.mgr.Register("wf", commitment("t", time.Now(), []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}}))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	<-started
	r.mgr.Cancel("wf", "t")
	if runs, labels := r.mgr.Residue(); runs != 0 || labels != 0 {
		t.Fatalf("after canceling the started run: %d runs, %d labels", runs, labels)
	}
	close(finish)
	time.Sleep(20 * time.Millisecond)
	if got := r.rec.snapshot(); len(got) != 0 {
		t.Errorf("dropped run still sent %v", got)
	}
}

// TestLabelsGoWithTheirRun: a label is held by each run that consumes it,
// dropped when none does, and leaves with its run.
func TestLabelsGoWithTheirRun(t *testing.T) {
	r := newRig(t, nil)
	later := time.Now().Add(time.Hour)
	r.mgr.Register("wf", commitment("t", later, []model.LabelID{"in"}, []model.LabelID{"mid"}), proto.PlanSegment{})
	r.mgr.Register("wf", commitment("u", later, []model.LabelID{"in", "mid"}, []model.LabelID{"out"}), proto.PlanSegment{})
	r.mgr.Register("other", commitment("t", later, []model.LabelID{"in"}, []model.LabelID{"out"}), proto.PlanSegment{})
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "mid", Producer: "peer"})
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "out", Producer: "peer"}) // nobody here consumes it
	r.mgr.OnLabel("other", proto.LabelTransfer{Label: "in", Producer: "boss"})
	if runs, labels := r.mgr.Residue(); runs != 3 || labels != 4 {
		t.Fatalf("%d runs, %d labels; want 3, 4", runs, labels)
	}
	for _, step := range []struct {
		task         model.TaskID
		runs, labels int
	}{
		{"t", 2, 3},     // t's copy of "in" goes; u keeps its own
		{"ghost", 2, 3}, // a cancel for a task never awarded here changes nothing
		{"u", 1, 1},     // u takes its two along; the other workflow is untouched
	} {
		r.mgr.Cancel("wf", step.task)
		if runs, labels := r.mgr.Residue(); runs != step.runs || labels != step.labels {
			t.Fatalf("after Cancel(%s): %d runs, %d labels; want %d, %d", step.task, runs, labels, step.runs, step.labels)
		}
	}
}

func TestClearWorkflow(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	start := time.Now().Add(time.Hour)
	r.mgr.Register("wf", commitment("t", start, []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", nil))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	r.mgr.ClearWorkflow("wf")
	if runs, labels := r.mgr.Residue(); runs != 0 || labels != 0 {
		t.Errorf("ClearWorkflow left %d runs, %d labels", runs, labels)
	}
}

func TestDuplicateLabelIgnored(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
		Fn: func(inv service.Invocation) (service.Outputs, error) {
			return service.Outputs{"out": inv.Inputs["in"]}, nil
		},
	})
	r.mgr.Register("wf", commitment("t", time.Now(), []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}}))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Data: []byte("first"), Producer: "a"})
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Data: []byte("second"), Producer: "b"})
	m := r.rec.waitFor(t, func(s sent) bool { return s.env.Body.Kind() == "label-transfer" }, time.Second)
	if string(m.env.Body.(proto.LabelTransfer).Data) != "first" {
		t.Error("later duplicate overwrote the first label value")
	}
	// The task runs once despite the duplicate.
	time.Sleep(20 * time.Millisecond)
	if n := r.rec.count(func(s sent) bool { return s.env.Body.Kind() == "label-transfer" }); n != 1 {
		t.Errorf("label-transfer count = %d", n)
	}
}

func TestTravelThenExecute(t *testing.T) {
	// Host 20mm away at 1 m/s: must travel ~20 ms before performing an
	// on-site task.
	mobility := space.NewMover(space.Point{X: 0.02}, 1)
	r := newRig(t, mobility, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	start := time.Now().Add(40 * time.Millisecond)
	c := commitment("t", start, []model.LabelID{"in"}, []model.LabelID{"out"})
	c.HasLocation = true
	c.Location = space.Point{}
	c.TravelStart = start.Add(-25 * time.Millisecond)
	c.Meta.Location = c.Location
	c.Meta.HasLocation = true
	r.mgr.Register("wf", c, seg("t", "boss", nil))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})

	waitFinished(t, r.mgr, 2*time.Second, "t")
	if pos := mobility.Position(time.Now()); !space.Near(pos, space.Point{}, 0.5) {
		t.Errorf("host did not arrive: %v", pos)
	}
}

func TestOutputsFanOutToAllSinks(t *testing.T) {
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
	})
	r.mgr.Register("wf", commitment("t", time.Now(), []model.LabelID{"in"}, []model.LabelID{"out"}), seg("t", "boss", map[model.LabelID][]proto.Addr{
		"out": {"peer1", "peer2", "boss"},
	}))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	r.rec.waitFor(t, func(s sent) bool { return s.to == "boss" && s.env.Body.Kind() == "label-transfer" }, time.Second)
	time.Sleep(20 * time.Millisecond)
	for _, to := range []proto.Addr{"peer1", "peer2", "boss"} {
		if n := r.rec.count(func(s sent) bool {
			return s.to == to && s.env.Body.Kind() == "label-transfer"
		}); n != 1 {
			t.Errorf("sink %s received %d transfers", to, n)
		}
	}
}

// TestSetPlanReroutesOrRepublishes: a plan request replaces a run's
// routes — one already invoking publishes along the new ones when it
// finishes — and makes a finished run re-publish its retained outputs
// along them.
func TestSetPlanReroutesOrRepublishes(t *testing.T) {
	started, finish := make(chan struct{}), make(chan struct{})
	r := newRig(t, nil, service.Registration{
		Descriptor: service.Descriptor{Task: "t", Specialization: 0.5},
		Fn: func(service.Invocation) (service.Outputs, error) {
			close(started)
			<-finish
			return service.Outputs{"out": []byte("x")}, nil
		},
	})
	to := func(sink proto.Addr) proto.PlanSegment {
		return seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {sink}})
	}
	r.mgr.Register("wf", commitment("t", time.Now(), []model.LabelID{"in"}, []model.LabelID{"out"}), to("old"))
	r.mgr.OnLabel("wf", proto.LabelTransfer{Label: "in", Producer: "boss"})
	<-started
	r.mgr.SetPlan("wf", to("new"))
	close(finish)
	r.rec.waitFor(t, func(s sent) bool { return s.to == "new" }, time.Second)
	r.mgr.SetPlan("wf", to("later"))
	r.rec.waitFor(t, func(s sent) bool { return s.to == "later" }, time.Second)
	if got := r.rec.snapshot(); !slices.Equal(got, []string{"new:label-transfer", "later:label-transfer"}) {
		t.Errorf("sent %v, want the output along the new route, then re-published", got)
	}
}

// TestRegisterAllocBound: registering and cancelling a commitment with no
// location allocates the run and little else — the commitment itself
// stays off the heap.
func TestRegisterAllocBound(t *testing.T) {
	r := newRig(t, nil)
	c := commitment("t", time.Now().Add(time.Hour), []model.LabelID{"in"}, []model.LabelID{"out"})
	s := seg("t", "boss", map[model.LabelID][]proto.Addr{"out": {"peer"}})
	allocs := testing.AllocsPerRun(100, func() {
		r.mgr.Register("wf", c, s)
		r.mgr.Cancel("wf", "t")
	})
	t.Logf("%.1f allocations per Register + Cancel", allocs)
	if allocs > 1 {
		t.Errorf("%.1f allocations per Register + Cancel, want at most 1", allocs)
	}
}
