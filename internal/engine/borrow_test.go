package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/testutil"
)

// keptLists is a fakeNet that keeps every FragmentQuery.Labels and
// FeasibilityQuery.Tasks it is handed, beside a snapshot taken on arrival —
// what a transport holding a query queued behind a stalled write sees.
type keptLists struct {
	*fakeNet
	labels, labelsAt [][]model.LabelID
	tasks, tasksAt   [][]model.TaskID
}

func (k *keptLists) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	k.mu.Lock()
	switch b := body.(type) {
	case proto.FragmentQuery:
		k.labels, k.labelsAt = append(k.labels, b.Labels), append(k.labelsAt, slices.Clone(b.Labels))
	case proto.FeasibilityQuery:
		k.tasks, k.tasksAt = append(k.tasks, b.Tasks), append(k.tasksAt, slices.Clone(b.Tasks))
	}
	k.mu.Unlock()
	return k.fakeNet.Call(ctx, to, workflow, body, timeout)
}

// TestWireOwnsItsLists: construction lends its frontier and its feasibility
// list to the community view for the call only, so what goes on the wire
// must be a copy. A cold session over members that never describe
// themselves sends every round and both feasibility checks: t1 is on the
// first path found and nobody can perform it, so the coloring resets and a
// third round finds the way round through c. Every list the network kept
// must read at the end as it did when it was sent.
func TestWireOwnsItsLists(t *testing.T) {
	net := &keptLists{fakeNet: newFakeNet("init")}
	net.add("init", &fakeMember{})
	net.add("peer", &fakeMember{
		fragments: []*model.Fragment{
			mkFrag(t, "t0", "a", "b"),
			mkFrag(t, "t1", "a", "m"),
			mkFrag(t, "t2", "m", "g"),
			mkFrag(t, "t3", "b", "c"),
			mkFrag(t, "t4", "c", "g"),
		},
		capable:  map[model.TaskID]bool{"t0": true, "t2": true, "t3": true, "t4": true},
		services: 1,
	})
	plan, err := NewManager(net, testConfig()).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Workflow.TaskIDs(), []model.TaskID{"t0", "t3", "t4"}; !slices.Equal(got, want) {
		t.Fatalf("workflow %v, want %v", got, want)
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	if rounds := len(net.labels) / 2; rounds < 3 || len(net.tasks) < 2*2 {
		t.Fatalf("%d collection rounds and %d feasibility queries on the wire, want ≥ 3 and ≥ 2 per member",
			rounds, len(net.tasks))
	}
	for i, l := range net.labels {
		if !slices.Equal(l, net.labelsAt[i]) {
			t.Errorf("fragment query %d: labels read %v, were %v when sent", i, l, net.labelsAt[i])
		}
	}
	for i, ts := range net.tasks {
		if !slices.Equal(ts, net.tasksAt[i]) {
			t.Errorf("feasibility query %d: tasks read %v, were %v when sent", i, ts, net.tasksAt[i])
		}
	}
}

// TestRecalledRoundAllocBound: a collection round over 15 known members —
// the sim_serial community — that memory answers in full allocates the
// member slice Route returns and nothing else: the frontier is not copied
// and the recalled fragments go into the view's grown buffer.
func TestRecalledRoundAllocBound(t *testing.T) {
	m := NewManager(newFakeNet("init"), testConfig())
	members := make([]proto.Addr, 15)
	for i := range members {
		members[i] = proto.Addr(fmt.Sprintf("host%02d", i))
		caps := &proto.Advertise{}
		var frags []*model.Fragment
		for j := 0; j < 8; j++ {
			l := fmt.Sprintf("l%02d-%d", i, j)
			caps.Labels = append(caps.Labels, model.LabelID(l))
			frags = append(frags, mkFrag(t, "know-"+l, l, "out-"+l))
		}
		m.idx.Learn(members[i], caps, caps.Labels, frags)
	}
	cv := &communityView{m: m, wfID: "wf", members: members}
	labels := lbl("l03-2", "l11-7", "nobody")
	testutil.AllocBound(t, 1, func() {
		if got, err := cv.FragmentsConsuming(context.Background(), labels); err != nil || len(got) != 2 {
			t.Errorf("recalled %v (%v)", got, err)
		}
	})
}
