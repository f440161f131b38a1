package openwf_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/trace"
)

func lbl(ls ...string) []openwf.LabelID {
	out := make([]openwf.LabelID, len(ls))
	for i, l := range ls {
		out[i] = openwf.LabelID(l)
	}
	return out
}

// TestConstructWorkflowLocal: a community of one constructs from its own
// knowhow and allocates to itself.
func TestConstructWorkflowLocal(t *testing.T) {
	com, err := openwf.NewCommunity([]openwf.HostSpec{{
		ID: "solo",
		Fragments: []*openwf.Fragment{
			openwf.MustFragment("f1", openwf.Task{
				ID: "t1", Mode: openwf.Conjunctive, Inputs: lbl("a"), Outputs: lbl("m"),
			}),
			openwf.MustFragment("f2", openwf.Task{
				ID: "t2", Mode: openwf.Conjunctive, Inputs: lbl("m"), Outputs: lbl("g"),
			}),
		},
		Services: []openwf.ServiceRegistration{openwf.SimpleService("t1"), openwf.SimpleService("t2")},
	}}, openwf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer com.Close()
	plan, err := com.Initiate(context.Background(), "solo", openwf.MustSpec(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 2 {
		t.Fatalf("workflow:\n%v", plan.Workflow)
	}
	if _, err := com.Initiate(context.Background(), "solo", openwf.MustSpec(lbl("a"), lbl("nothing"))); err == nil {
		t.Fatal("unsatisfiable spec constructed")
	}
}

func TestServiceHelpers(t *testing.T) {
	s := openwf.SimpleService("t")
	if s.Descriptor.Task != "t" || s.Descriptor.Duration != 0 {
		t.Errorf("SimpleService = %+v", s.Descriptor)
	}
	ts := openwf.TimedService("t", time.Second, nil)
	if ts.Descriptor.Duration != time.Second {
		t.Errorf("TimedService = %+v", ts.Descriptor)
	}
	ls := openwf.LocatedService("t", openwf.Point{X: 1, Y: 2}, time.Second, nil)
	if ls.Descriptor.Location == nil || ls.Descriptor.Location.X != 1 {
		t.Errorf("LocatedService = %+v", ls.Descriptor)
	}
}

func TestLinkModels(t *testing.T) {
	m := openwf.WirelessLinkModel(time.Millisecond, 0, 1e6)
	lat, drop := m("a", "b", 125, nil)
	if drop || lat != 2*time.Millisecond {
		t.Errorf("wireless model = %v, %v", lat, drop)
	}
	if openwf.Wireless80211g() == nil {
		t.Error("Wireless80211g returned nil")
	}
}

// TestFacadeEndToEnd runs the complete pipeline through the public API
// only: community, construction, allocation, execution, goal data.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := openwf.DefaultEngineConfig()
	cfg.StartDelay = 200 * time.Millisecond
	cfg.TaskWindow = 30 * time.Millisecond
	com, err := openwf.NewCommunity([]openwf.HostSpec{
		{ID: "asker"},
		{
			ID: "knower",
			Fragments: []*openwf.Fragment{
				openwf.MustFragment("know", openwf.Task{
					ID: "answer", Mode: openwf.Conjunctive,
					Inputs: lbl("question"), Outputs: lbl("answered"),
				}),
			},
			Services: []openwf.ServiceRegistration{
				openwf.TimedService("answer", time.Millisecond,
					func(inv openwf.Invocation) (openwf.Outputs, error) {
						return openwf.Outputs{"answered": []byte("42")}, nil
					}),
			},
		},
	}, openwf.Options{Engine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer com.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	plan, err := com.Initiate(ctx, "asker", openwf.MustSpec(lbl("question"), lbl("answered")))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Allocations["answer"]; got != "knower" {
		t.Fatalf("Allocations = %v", plan.Allocations)
	}
	report, err := com.Execute(ctx, "asker", plan, map[openwf.LabelID][]byte{
		"question": []byte("meaning of life"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed || string(report.Goals["answered"]) != "42" {
		t.Fatalf("report = %+v", report)
	}
}

// TestFacadeInitiateAll: N allocation sessions multiplexed over one
// initiator through the facade.
func TestFacadeInitiateAll(t *testing.T) {
	cfg := openwf.DefaultEngineConfig()
	cfg.StartDelay = 200 * time.Millisecond
	cfg.TaskWindow = 30 * time.Millisecond
	frag := func(name, task, in, out string) *openwf.Fragment {
		return openwf.MustFragment(name, openwf.Task{
			ID: openwf.TaskID(task), Mode: openwf.Conjunctive,
			Inputs: lbl(in), Outputs: lbl(out),
		})
	}
	com, err := openwf.NewCommunity([]openwf.HostSpec{
		{ID: "asker"},
		{
			ID:        "w1",
			Fragments: []*openwf.Fragment{frag("k1", "job1", "in1", "out1")},
			Services:  []openwf.ServiceRegistration{openwf.SimpleService("job1")},
		},
		{
			ID:        "w2",
			Fragments: []*openwf.Fragment{frag("k2", "job2", "in2", "out2")},
			Services:  []openwf.ServiceRegistration{openwf.SimpleService("job2")},
		},
		{
			ID:        "w3",
			Fragments: []*openwf.Fragment{frag("k3", "job3", "in3", "out3")},
			Services:  []openwf.ServiceRegistration{openwf.SimpleService("job3")},
		},
	}, openwf.Options{Engine: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer com.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	specs := []openwf.Spec{
		openwf.MustSpec(lbl("in1"), lbl("out1")),
		openwf.MustSpec(lbl("in2"), lbl("out2")),
		openwf.MustSpec(lbl("in3"), lbl("out3")),
	}
	plans, err := com.InitiateAll(ctx, "asker", specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if p == nil {
			t.Fatalf("plan %d missing", i)
		}
		want := openwf.Addr("w" + string(rune('1'+i)))
		task := openwf.TaskID("job" + string(rune('1'+i)))
		if got := p.Allocations[task]; got != want {
			t.Errorf("plan %d: %s allocated to %q, want %q", i, task, got, want)
		}
	}
}

// receipts is a trace.Recorder counting the envelopes handed to a host's
// handler.
type receipts struct{ n atomic.Int64 }

func (r *receipts) Record(e trace.Event) {
	if e.Dir == trace.Recv {
		r.n.Add(1)
	}
}

// TestFacadeOptions builds a two-host community with each Options field
// set in turn and checks the one thing that field changes (Engine is what
// the tests above run on; the observer rides on it).
func TestFacadeOptions(t *testing.T) {
	hosts := func() []openwf.HostSpec {
		return []openwf.HostSpec{
			{ID: "asker"},
			{
				ID: "worker",
				Fragments: []*openwf.Fragment{openwf.MustFragment("know", openwf.Task{
					ID: "job", Mode: openwf.Conjunctive, Inputs: lbl("in"), Outputs: lbl("out"),
				})},
				Services: []openwf.ServiceRegistration{openwf.SimpleService("job")},
			},
		}
	}
	problem, err := openwf.NewSpec(lbl("in"), lbl("out"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openwf.NewSpec(lbl("in"), nil); err == nil {
		t.Error("NewSpec accepted a specification without goals")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	initiate := func(t *testing.T, com *openwf.Community) {
		t.Helper()
		plan, err := com.Initiate(ctx, "asker", problem)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Allocations["job"]; got != "worker" {
			t.Fatalf("Allocations = %v", plan.Allocations)
		}
	}
	// firstDraw builds a community whose link model records the first value
	// the network's seeded per-link source hands it.
	firstDraw := func(t *testing.T, seed int64) int64 {
		var once sync.Once
		var draw int64
		com, err := openwf.NewCommunity(hosts(), openwf.Options{Seed: seed,
			LinkModel: func(_, _ openwf.Addr, _ int, rng *rand.Rand) (time.Duration, bool) {
				once.Do(func() { draw = rng.Int63() })
				return 0, false
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer com.Close()
		initiate(t, com)
		return draw
	}
	// cutOff partitions worker away, sends it one message and heals.
	cutOff := func(t *testing.T, com *openwf.Community) {
		t.Helper()
		asker, _ := com.Host("asker")
		com.Network().SetPartition([]openwf.Addr{"asker"}, []openwf.Addr{"worker"})
		if err := asker.Send(ctx, "worker", "wf", proto.Cancel{Tasks: []model.TaskID{"job"}}); err != nil {
			t.Fatal(err)
		}
		com.Network().SetPartition()
	}

	var constructions atomic.Int64
	var received receipts
	observed := openwf.DefaultEngineConfig()
	observed.Observer = openwf.Observer{
		ConstructionDone: func(string, openwf.ConstructionResult) { constructions.Add(1) },
	}
	for _, row := range []struct {
		name  string
		opts  openwf.Options
		check func(t *testing.T, com *openwf.Community)
	}{
		{"Transport", openwf.Options{Transport: openwf.TCP},
			func(t *testing.T, com *openwf.Community) {
				if com.Network() != nil {
					t.Error("TCP community runs on the simulated network")
				}
				initiate(t, com)
				if com.TransportStats().Calls == 0 {
					t.Error("no request crossed a socket")
				}
			}},
		{"Engine.Observer", openwf.Options{Engine: &observed},
			func(t *testing.T, com *openwf.Community) {
				initiate(t, com)
				if got := constructions.Load(); got != 1 {
					t.Errorf("ConstructionDone fired %d times, want 1", got)
				}
			}},
		{"LinkModel+Seed", openwf.Options{},
			func(t *testing.T, _ *openwf.Community) {
				a, again, b := firstDraw(t, 7), firstDraw(t, 7), firstDraw(t, 8)
				if a == 0 || a != again || a == b {
					t.Errorf("first link draw: seed 7 → %d then %d, seed 8 → %d; want equal, then different", a, again, b)
				}
			}},
		{"StoreAndForward", openwf.Options{StoreAndForward: true, Trace: &received},
			func(t *testing.T, com *openwf.Community) {
				cutOff(t, com)
				for deadline := time.Now().Add(5 * time.Second); received.n.Load() != 1; {
					if time.Now().After(deadline) {
						t.Fatalf("message sent across the partition not delivered after it healed (dropped %d)", com.Network().Stats().FramesDropped)
					}
					time.Sleep(time.Millisecond)
				}
				plain, err := openwf.NewCommunity(hosts(), openwf.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer plain.Close()
				cutOff(t, plain)
				if plain.Network().Stats().FramesDropped != 1 {
					t.Errorf("without StoreAndForward the partition dropped %d messages, want 1", plain.Network().Stats().FramesDropped)
				}
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			com, err := openwf.NewCommunity(hosts(), row.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer com.Close()
			row.check(t, com)
		})
	}
}
