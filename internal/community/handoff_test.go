package community

// A label for a run on the same host never crosses the link: the host's
// execution manager gives a LabelTransfer addressed to itself straight to
// its own runs and then to the host's engine, and a failure's TaskDone for
// its own initiator straight to the engine, with a label's data copied as
// the codec would copy it. A lossy self-link therefore loses none of them,
// and a consumer that overwrites its input leaves its producer's retained
// output intact.

import (
	"sync"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/spec"
	"openwf/internal/trace"
)

// selfTransfers counts the label transfers host sent itself and received
// from itself, as its trace recorded them.
func selfTransfers(buf *trace.Buffer, host proto.Addr) (sent, recv int) {
	for _, e := range buf.Events() {
		if e.Host != host || e.Peer != host || e.Kind != "label-transfer" {
			continue
		}
		if e.Dir == trace.Send {
			sent++
		} else {
			recv++
		}
	}
	return sent, recv
}

// TestSameHostLabelNeverCrossesTheLink: host01 is the only provider of both
// tasks of the chain a → t1 → m → t2 → g, so m goes from host01 to
// host01. Its self-link loses every frame, and Execute still completes: no
// frame went on that link, although the trace still records m sent and
// received once.
func TestSameHostLabelNeverCrossesTheLink(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = 2*time.Second, time.Second
	buf := &trace.Buffer{}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: buf}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"g"})),
		}},
		{ID: "host01", Services: []service.Registration{svc("t1", 10*time.Millisecond), svc("t2", 10*time.Millisecond)}},
	}...)
	plan, err := c.Initiate(ctxTimeout(t, 10*time.Second), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "host01" || plan.Allocations["t2"] != "host01" {
		t.Fatalf("allocations = %v, want both tasks on host01", plan.Allocations)
	}
	c.Network().SetLinkLoss("host01", "host01", 1)
	executeChain(t, sim, c, plan)
	if n := c.Network().Stats().FramesDropped; n != 0 {
		t.Errorf("%d frames lost on host01's self-link, want none sent on it", n)
	}
	if sent, recv := selfTransfers(buf, "host01"); sent != 1 || recv != 1 {
		t.Errorf("host01 recorded %d label transfers to itself and %d from itself, want 1 and 1", sent, recv)
	}
	waitClean(t, c)
}

// TestSameHostInputIsItsOwnCopy: on host01, "eat" consumes the m that
// "make" produces there and overwrites it in place. A plan repair then
// routes make's retained m to a new consumer on host00, which still gets
// the bytes make produced.
func TestSameHostInputIsItsOwnCopy(t *testing.T) {
	ate := make(chan struct{})
	got := make(chan []byte, 1)
	c := newTestCommunity(t, Options{}, []HostSpec{
		{ID: "host00", Services: []service.Registration{{
			Descriptor: service.Descriptor{Task: "check"},
			Fn: func(inv service.Invocation) (service.Outputs, error) {
				got <- inv.Inputs["m"]
				return nil, nil
			},
		}}},
		{ID: "host01", Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "make"}, Fn: func(service.Invocation) (service.Outputs, error) {
				return service.Outputs{"m": []byte("made")}, nil
			}},
			{Descriptor: service.Descriptor{Task: "eat"}, Fn: func(inv service.Invocation) (service.Outputs, error) {
				copy(inv.Inputs["m"], "XXXX")
				close(ate)
				return nil, nil
			}},
		}},
	}...)
	now := time.Now()
	register := func(id proto.Addr, task model.TaskID, in, out []model.LabelID, routes ...proto.Route) {
		h, _ := c.Host(id)
		meta := proto.TaskMeta{Task: task, Inputs: in, Outputs: out, Start: now, End: now.Add(time.Minute)}
		h.Exec.Register("wf", schedule.Commitment{Workflow: "wf", Task: task, Start: meta.Start, End: meta.End, TravelStart: meta.Start, Meta: meta},
			proto.PlanSegment{Task: task, Initiator: "host00", Routes: routes})
	}
	register("host01", "eat", []model.LabelID{"m"}, nil)
	register("host01", "make", nil, []model.LabelID{"m"}, proto.Route{Label: "m", To: "host01"})
	select {
	case <-ate:
	case <-time.After(5 * time.Second):
		t.Fatal("eat never ran on the m that make handed over")
	}
	register("host00", "check", []model.LabelID{"m"}, nil)
	h1, _ := c.Host("host01")
	h1.Exec.SetPlan("wf", proto.PlanSegment{Task: "make", Initiator: "host00", Routes: []proto.Route{{Label: "m", To: "host00"}}})
	select {
	case data := <-got:
		if string(data) != "made" {
			t.Fatalf("the re-published m reads %q, want %q: the consumer wrote through its producer's output", data, "made")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the re-published m never reached its new consumer")
	}
	for _, id := range c.Members() {
		h, _ := c.Host(id)
		h.Exec.Cancel("wf")
	}
}

// lossAtGoal makes host00's self-link lose every frame from the moment
// host00 sends itself a label: the goal of the task it runs.
type lossAtGoal struct {
	mu   sync.Mutex
	c    *Community
	sent bool
}

func (r *lossAtGoal) Record(e trace.Event) {
	if e.Dir != trace.Send || e.Host != "host00" || e.Peer != "host00" || e.Kind != "label-transfer" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = true
	r.c.Network().SetLinkLoss("host00", "host00", 1)
}

// TestInitiatorHandsItsGoalOverInPlace: host00 initiates and is the only
// provider of t2, the last task, so the goal g and t2's TaskDone go from
// host00 to host00. Its self-link loses everything from the moment g is
// sent, and Execute still completes with g: both were handed over in
// place. The release host00 sends itself is lost; the lease clears it.
func TestInitiatorHandsItsGoalOverInPlace(t *testing.T) {
	sim := clock.NewSim(chaosT0)
	cfg := engine.DefaultConfig()
	cfg.StartDelay, cfg.TaskWindow = 2*time.Second, time.Second
	rec := &lossAtGoal{}
	c := newTestCommunity(t, Options{Clock: sim, Engine: &cfg, Trace: rec}, []HostSpec{
		{ID: "host00", Fragments: []*model.Fragment{
			frag(t, "know-t1", ctask("t1", []model.LabelID{"a"}, []model.LabelID{"m"})),
			frag(t, "know-t2", ctask("t2", []model.LabelID{"m"}, []model.LabelID{"g"})),
		}, Services: []service.Registration{svc("t2", 10*time.Millisecond)}},
		{ID: "host01", Services: []service.Registration{svc("t1", 10*time.Millisecond)}},
	}...)
	rec.c = c
	plan, err := c.Initiate(ctxTimeout(t, 10*time.Second), "host00", spec.Must([]model.LabelID{"a"}, []model.LabelID{"g"}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t2"] != "host00" {
		t.Fatalf("allocations = %v, want t2 on the initiator", plan.Allocations)
	}
	executeChain(t, sim, c, plan)
	rec.mu.Lock()
	sent := rec.sent
	rec.mu.Unlock()
	if !sent {
		t.Fatal("host00 never sent itself the goal")
	}
	sim.Advance(auction.DefaultCommitLease + time.Minute)
	waitClean(t, c)
}
