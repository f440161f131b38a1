package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/testutil"
)

// pipelineNet scripts a describing community that knows a → t1 → m → t2 →
// n → t3 → g one task per member, plus a junk member whose knowhow and
// service touch none of it.
func pipelineNet(t *testing.T) *fakeNet {
	net := newFakeNet("init")
	net.describes = true
	net.add("init", &fakeMember{})
	for i, step := range [][2]string{{"a", "m"}, {"m", "n"}, {"n", "g"}, {"x", "y"}} {
		name := fmt.Sprintf("t%d", i+1)
		net.add(proto.Addr(fmt.Sprintf("p%d", i+1)), &fakeMember{
			fragments: []*model.Fragment{mkFrag(t, name, step[0], step[1])},
			capable:   map[model.TaskID]bool{model.TaskID(name): true},
			services:  1,
		})
	}
	return net
}

// contestedNet is pipelineNet with t2 offered by the junk member p4 as
// well: t2 is contested, so memory cannot decide a session and every one is
// auctioned in a sweep.
func contestedNet(t *testing.T) *fakeNet {
	net := pipelineNet(t)
	net.members["p4"].capable["t2"] = true
	return net
}

// conversation renders the logged calls of the given kind as "to" or
// "to+describe", in order.
func conversation(net *fakeNet, kind string) []string {
	net.mu.Lock()
	defer net.mu.Unlock()
	var out []string
	for _, c := range net.log {
		if c.body.Kind() != kind {
			continue
		}
		s := string(c.to)
		if q, ok := c.body.(proto.FragmentQuery); ok && q.Describe {
			s += "+describe"
		}
		out = append(out, s)
	}
	return out
}

// TestDirectoryRoutesLaterSweeps: a host's first sweep reaches everyone
// and asks for descriptions; every later sweep goes only to members that
// can answer, feasibility costs no message, and bids are solicited from
// the offerers alone, in the order a broadcast would have visited them.
// The host remembers what it was told, too: its second session constructs
// from the fragments the first one collected and sends no fragment query at
// all.
func TestDirectoryRoutesLaterSweeps(t *testing.T) {
	net := contestedNet(t)
	m := NewManager(net, testConfig())
	plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workflow.NumTasks() != 3 || len(plan.Allocations) != 3 {
		t.Fatalf("plan: %d tasks, %d allocated", plan.Workflow.NumTasks(), len(plan.Allocations))
	}
	wantQueries := []string{
		"init+describe", "p1+describe", "p2+describe", "p3+describe", "p4+describe", // frontier {a}
		"p2", // frontier {m}
		"p3", // frontier {n}
	}
	if got := conversation(net, "fragment-query"); !reflect.DeepEqual(got, wantQueries) {
		t.Errorf("fragment queries:\ngot  %v\nwant %v", got, wantQueries)
	}
	if got := conversation(net, "feasibility-query"); got != nil {
		t.Errorf("feasibility queries to %v, want none: every member described itself", got)
	}
	if got, want := conversation(net, "call-for-bids-batch"), []string{"p1", "p2", "p3", "p4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("calls for bids to %v, want %v", got, want)
	}

	net.clearLog()
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	if got := conversation(net, "fragment-query"); got != nil {
		t.Errorf("second session's fragment queries to %v, want none: every round's labels were answered before", got)
	}
	if got := conversation(net, "feasibility-query"); got != nil {
		t.Errorf("second session's feasibility queries to %v, want none", got)
	}
	if got, want := conversation(net, "call-for-bids-batch"), []string{"p2", "p3", "p4", "p1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("second session's calls for bids to %v, want %v (ordinal 2 starts at p2)", got, want)
	}
}

// TestUndescribedMemberAlwaysAsked: a member that never describes itself
// — here a peer that ignores Describe — is part of every sweep, asked to
// describe itself each time, and is the only one sent a feasibility query.
func TestUndescribedMemberAlwaysAsked(t *testing.T) {
	net := pipelineNet(t)
	net.mute = map[proto.Addr]bool{"p4": true}
	if _, err := NewManager(net, testConfig()).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	wantQueries := []string{
		"init+describe", "p1+describe", "p2+describe", "p3+describe", "p4+describe",
		"p2+describe", "p4+describe",
		"p3+describe", "p4+describe",
	}
	if got := conversation(net, "fragment-query"); !reflect.DeepEqual(got, wantQueries) {
		t.Errorf("fragment queries:\ngot  %v\nwant %v", got, wantQueries)
	}
	if got, want := conversation(net, "feasibility-query"), []string{"p4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("feasibility queries to %v, want %v", got, want)
	}
	if got, want := conversation(net, "call-for-bids-batch"), []string{"p1", "p2", "p3", "p4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("calls for bids to %v, want %v", got, want)
	}
}

// TestSolicitationKeepsBroadcastOrder pins rotate-then-filter: for every
// session ordinal, the solicited members appear in the order the full
// rotated sweep would have visited them. Filtering first and rotating the
// shorter list by the same ordinal starts at a different member.
func TestSolicitationKeepsBroadcastOrder(t *testing.T) {
	net := contestedNet(t)
	m := NewManager(net, testConfig())
	all := net.Members()
	offers := map[proto.Addr]bool{"p1": true, "p2": true, "p3": true, "p4": true}
	for ordinal := 1; ordinal <= 2*len(all); ordinal++ {
		net.clearLog()
		plan, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("init/%d", ordinal); plan.WorkflowID != want {
			t.Fatalf("session %d minted %s", ordinal, plan.WorkflowID)
		}
		var want []string
		for i := range all {
			if member := all[(ordinal+i)%len(all)]; offers[member] {
				want = append(want, string(member))
			}
		}
		if got := conversation(net, "call-for-bids-batch"); !reflect.DeepEqual(got, want) {
			t.Errorf("session %d solicited %v, want broadcast order %v", ordinal, got, want)
		}
	}
}

// TestDirectoryNobodyOffersAnything: with feasibility filtering off, a
// workflow whose only task no described member offers is solicited from
// nobody; the tasks fail as if everyone had declined, and §5.1 takes over.
func TestDirectoryNobodyOffersAnything(t *testing.T) {
	net := newFakeNet("init")
	net.describes = true
	net.add("init", &fakeMember{fragments: []*model.Fragment{mkFrag(t, "t1", "a", "g")}})
	net.add("peer", &fakeMember{})
	cfg := testConfig()
	cfg.Feasibility = false
	_, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("err = %v, want the replan around t1 to find no solution", err)
	}
	if got := conversation(net, "call-for-bids-batch"); got != nil {
		t.Errorf("calls for bids to %v, want none", got)
	}
}

// TestDirectoryLearnSortsForeignSets: the engine keeps what a reply
// carries and looks it up by binary search, so a description that arrives
// unsorted from a foreign peer must still route every sweep its member
// should be part of.
func TestDirectoryLearnSortsForeignSets(t *testing.T) {
	m := NewManager(newFakeNet("init"), testConfig())
	m.idx.Learn("peer", &proto.Advertise{
		Labels: []model.LabelID{"z", "b", "m"},
		Tasks:  []model.TaskID{"t9", "t1"},
	}, nil, nil)
	for _, l := range []model.LabelID{"z", "b", "m"} {
		if got, _ := m.route(nil, []proto.Addr{"peer"}, []model.LabelID{l}, nil, 0); len(got) != 1 {
			t.Errorf("label %q does not route to its member", l)
		}
	}
	for _, task := range []model.TaskID{"t9", "t1"} {
		if got, _ := m.route(nil, []proto.Addr{"peer"}, nil, []model.TaskID{task}, 0); len(got) != 1 {
			t.Errorf("task %q does not route to its member", task)
		}
	}
	if got, describe := m.route(nil, []proto.Addr{"peer"}, []model.LabelID{"q"}, nil, 0); len(got) != 0 || describe {
		t.Errorf("unrelated label routed to %v (describe=%v)", got, describe)
	}
}

// TestDirectoryLookupAllocBound: the routing step over 15 known members —
// the sim_serial community — allocates the returned member slice and
// nothing else (one more for a rotated visiting order), and on a host
// that knows nobody not even that.
func TestDirectoryLookupAllocBound(t *testing.T) {
	m := NewManager(newFakeNet("init"), testConfig())
	members := make([]proto.Addr, 15)
	for i := range members {
		members[i] = proto.Addr(fmt.Sprintf("host%02d", i))
		caps := &proto.Advertise{}
		for j := 0; j < 8; j++ {
			caps.Labels = append(caps.Labels, model.LabelID(fmt.Sprintf("l%02d-%d", i, j)))
			caps.Tasks = append(caps.Tasks, model.TaskID(fmt.Sprintf("t%02d-%d", i, j)))
		}
		m.idx.Learn(members[i], caps, nil, nil)
	}
	labels := []model.LabelID{"l03-2", "l11-7", "nobody"}
	tasks := []model.TaskID{"t00-0", "t14-7", "nobody"}
	testutil.AllocBound(t, 1, func() {
		if got, _ := m.route(nil, members, labels, nil, 0); len(got) != 2 {
			t.Errorf("labels routed to %v", got)
		}
	})
	testutil.AllocBound(t, 2, func() {
		if got, _ := m.route(nil, members, nil, tasks, 7); len(got) != 2 {
			t.Errorf("tasks routed to %v", got)
		}
	})
	cold := NewManager(newFakeNet("init"), testConfig())
	testutil.AllocBound(t, 0, func() {
		if got, describe := cold.route(nil, members, labels, nil, 0); len(got) != len(members) || !describe {
			t.Errorf("a host that knows nobody routed to %v (describe=%v)", got, describe)
		}
	})
}

// staleNet is pipelineNet on a frozen virtual clock after one planned
// session, so the host remembers every member — and nothing lapses.
func staleNet(t *testing.T) (*fakeNet, *Manager) {
	net := pipelineNet(t)
	net.clk = clock.NewSim(time.Date(2026, 6, 14, 9, 0, 0, 0, time.UTC))
	net.setCapable("p4", "t4", false)
	m := NewManager(net, testConfig())
	if _, err := m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g"))); err != nil {
		t.Fatal(err)
	}
	net.clearLog()
	return net, m
}

// describing is one sweep that asks the whole pipeline community to
// describe itself.
var describing = []string{"init+describe", "p1+describe", "p2+describe", "p3+describe", "p4+describe"}

// TestNoFailureReportedFromMemory: a member gains a fragment or a service
// after describing itself, and the next session needs it. Routed by what
// the host remembers the session finds no solution; instead of reporting
// that it forgets what it was told before it began and runs once more,
// asking everyone — and succeeds without the clock moving at all.
func TestNoFailureReportedFromMemory(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gain   func(*testing.T, *fakeNet)
		goal   string
		before []string // the run routed from memory
		after  []string // the re-asking run's queries past its describing sweep
	}{
		{name: "fragment", goal: "z", before: []string{"p4"}, after: []string{"p4"},
			gain: func(t *testing.T, net *fakeNet) {
				net.setCapable("p4", "t4", true)
				net.setCapable("p4", "t5", true)
				p4 := net.members["p4"]
				p4.fragments = append(p4.fragments, mkFrag(t, "t5", "y", "z"))
			}},
		{name: "service", goal: "y", before: []string{"p4"}, after: nil,
			gain: func(_ *testing.T, net *fakeNet) { net.setCapable("p4", "t4", true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, m := staleNet(t)
			tc.gain(t, net)
			plan, err := m.Initiate(context.Background(), spec.Must(lbl("x"), lbl(tc.goal)))
			if err != nil {
				t.Fatalf("the session that needs what p4 gained: %v", err)
			}
			if plan.Replans != 0 || len(plan.Allocations) != plan.Workflow.NumTasks() {
				t.Fatalf("plan: %d replans, %d of %d tasks allocated", plan.Replans, len(plan.Allocations), plan.Workflow.NumTasks())
			}
			want := append(append(append([]string(nil), tc.before...), describing...), tc.after...)
			if got := conversation(net, "fragment-query"); !reflect.DeepEqual(got, want) {
				t.Errorf("fragment queries:\ngot  %v\nwant %v\n(one run from memory, exactly one re-asking run)", got, want)
			}
			if got := conversation(net, "feasibility-query"); got != nil {
				t.Errorf("feasibility queries to %v, want none", got)
			}
		})
	}
}

// TestNoSolutionCostsOneDescribingSweep: a specification nobody can
// satisfy fails from memory without a message, is re-asked once — one
// describing sweep and the rounds after it, what the same failure costs a
// host that knows nobody — and then reported; it never loops. The first
// session on a host learned everything it knows itself, so it fails without
// running again.
func TestNoSolutionCostsOneDescribingSweep(t *testing.T) {
	nowhere := spec.Must(lbl("a"), lbl("nowhere"))
	net, m := staleNet(t)
	for session := 2; session <= 3; session++ {
		net.clearLog()
		if _, err := m.Initiate(context.Background(), nowhere); !errors.Is(err, core.ErrNoSolution) {
			t.Fatalf("session %d: err = %v, want ErrNoSolution", session, err)
		}
		want := append(append([]string(nil), describing...), "p2", "p3")
		if got := conversation(net, "fragment-query"); !reflect.DeepEqual(got, want) {
			t.Errorf("session %d fragment queries:\ngot  %v\nwant %v", session, got, want)
		}
	}

	first := pipelineNet(t)
	if _, err := NewManager(first, testConfig()).Initiate(context.Background(), nowhere); !errors.Is(err, core.ErrNoSolution) {
		t.Fatalf("first session: err = %v, want ErrNoSolution", err)
	}
	want := append(append([]string(nil), describing...), "p2", "p3")
	if got := conversation(first, "fragment-query"); !reflect.DeepEqual(got, want) {
		t.Errorf("first session's fragment queries:\ngot  %v\nwant %v\n(it must not run again)", got, want)
	}
}

// TestDescribedMemberDownCostsOneSolicitation: a member that dies after
// describing itself is still in the index, so the auction tries it —
// once — and allocates around it from the bids that did arrive.
func TestDescribedMemberDownCostsOneSolicitation(t *testing.T) {
	net := pipelineNet(t)
	net.setCapable("p4", "t2", true)
	cfg := testConfig()
	cfg.Observer.ConstructionDone = func(string, core.Result) { net.setDown("p2") }
	plan, err := NewManager(net, cfg).Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Replans != 0 || plan.Allocations["t2"] != "p4" {
		t.Fatalf("replans = %d, t2 → %q; want t2 on p4 without a replan", plan.Replans, plan.Allocations["t2"])
	}
	if got, want := conversation(net, "call-for-bids-batch"), []string{"p1", "p2", "p3", "p4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("calls for bids to %v, want %v (p2 once, in vain)", got, want)
	}
}

// TestSilentMemberDeclines: a member whose call for bids fails declines
// every task it was asked about, so the auction ends with its sweep — here
// on a clock nobody advances, where waiting for the tentative winner's
// deadline would never end — and a task nobody bid for is decided failed,
// once.
func TestSilentMemberDeclines(t *testing.T) {
	net := chainNet(t)
	net.clk = clock.NewSim(time.Unix(1000, 0))
	net.add("down", &fakeMember{capable: map[model.TaskID]bool{"t1": true, "t2": true}})
	net.setDown("down")
	initiate := func() (*Plan, *decisions, error) {
		t.Helper()
		cfg := oneAttempt()
		cfg.Feasibility = false
		seen := observeDecisions(&cfg)
		m := NewManager(net, cfg)
		var plan *Plan
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			plan, err = m.Initiate(context.Background(), spec.Must(lbl("a"), lbl("g")))
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Initiate still waiting on the silent member")
		}
		return plan, seen, err
	}

	plan, seen, err := initiate()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations["t1"] != "peer" || plan.Allocations["t2"] != "peer" {
		t.Errorf("Allocations = %v, want everything on the bidder", plan.Allocations)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "peer", "t2": "peer"})

	net.setCapable("peer", "t2", false)
	if _, seen, err = initiate(); !errors.Is(err, ErrAllocationFailed) {
		t.Fatalf("err = %v, want ErrAllocationFailed", err)
	}
	seen.want(t, map[model.TaskID]proto.Addr{"t1": "peer", "t2": ""})
}
