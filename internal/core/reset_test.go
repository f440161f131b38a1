package core

import (
	"context"
	"slices"
	"testing"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// freshConstruct builds a brand-new supergraph from frags (applying excl
// first) and constructs s against it — the reference result every
// construction in a reused supergraph must match byte for byte.
func freshConstruct(t *testing.T, frags []*model.Fragment, s spec.Spec, excl ...model.TaskID) string {
	t.Helper()
	g := NewSupergraph()
	for _, id := range excl {
		g.MarkInfeasible(id)
	}
	for _, f := range frags {
		if _, err := g.AddFragment(f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Construct(g, s)
	if err != nil {
		t.Fatalf("fresh Construct: %v", err)
	}
	return res.Workflow.String()
}

// assertOnlyGreenColored checks the precondition ResetColoring rests on:
// every node that is not on the green list is uncolored, at distance
// infinity, with no blue parents.
func assertOnlyGreenColored(t *testing.T, g *Supergraph, when string) {
	t.Helper()
	for _, order := range [2][]*node{g.labelOrder, g.taskOrder} {
		for _, n := range order {
			if slices.Contains(g.green, n) {
				continue
			}
			if n.color != Uncolored || n.distance != infinity || len(n.blueParents) != 0 {
				t.Errorf("%s: %s is off the green list but carries color %v, distance %d, %d blue parents",
					when, n.id(), n.color, n.distance, len(n.blueParents))
			}
		}
	}
}

// TestEpochRepeatedConstructMatchesFresh: a long-lived supergraph answering
// a sequence of different specifications yields, for every one of them, a
// workflow byte-identical to a freshly built graph's answer, and only the
// nodes on the green list ever carry coloring state — the reset leaves no
// residue.
func TestEpochRepeatedConstructMatchesFresh(t *testing.T) {
	frags := cateringFragments(t)
	g := supergraphOf(t, frags)
	specs := []spec.Spec{
		spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")),
		spec.Must(lbl("lunch ingredients"), lbl("lunch served")),
		spec.Must(lbl("breakfast ingredients", "lunch ingredients"), lbl("breakfast served", "lunch served")),
		spec.Must(lbl("doughnuts ordered"), lbl("breakfast served")),
		spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")), // repeat of the first
	}
	for i, s := range specs {
		res, err := Construct(g, s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if got, want := res.Workflow.String(), freshConstruct(t, frags, s); got != want {
			t.Errorf("spec %d: reused supergraph diverges from fresh graph:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		assertOnlyGreenColored(t, g, "after Construct")
	}
	g.ResetColoring()
	assertOnlyGreenColored(t, g, "after ResetColoring")
	if _, err := Construct(g, specs[0]); err != nil {
		t.Fatal(err)
	}
	g.MarkInfeasible("serve tables")
	assertOnlyGreenColored(t, g, "after MarkInfeasible")
	if _, err := Construct(g, specs[1]); err != nil {
		t.Fatal(err)
	}
	g.MarkFeasible("serve tables")
	assertOnlyGreenColored(t, g, "after MarkFeasible")
}

// TestResetColoringClears: after ResetColoring no label reads as colored
// or reached, and the green list is empty.
func TestResetColoringClears(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	s := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	if _, err := Construct(g, s); err != nil {
		t.Fatal(err)
	}
	goal := g.labels["breakfast served"]
	if goal.color != Blue {
		t.Fatalf("goal color = %v before reset", goal.color)
	}
	g.ResetColoring()
	if goal.color != Uncolored {
		t.Errorf("goal color after reset = %v, want uncolored", goal.color)
	}
	if goal.distance != infinity {
		t.Errorf("goal still at distance %d after reset", goal.distance)
	}
	if g.GreenCount() != 0 {
		t.Errorf("GreenCount after reset = %d", g.GreenCount())
	}
}

// TestEpochMarkInfeasibleAfterConstruction: excluding a task after a
// completed construction resets coloring and the next
// construction routes around it exactly like a freshly built graph with
// the same exclusion.
func TestEpochMarkInfeasibleAfterConstruction(t *testing.T) {
	frags := cateringFragments(t)
	g := supergraphOf(t, frags)
	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	first, err := Construct(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude whichever lunch service the first construction picked.
	var excluded model.TaskID
	for _, id := range []model.TaskID{"serve tables", "serve buffet"} {
		if _, ok := first.Workflow.Task(id); ok {
			excluded = id
			break
		}
	}
	if excluded == "" {
		t.Fatalf("no lunch service in first workflow:\n%s", first.Workflow)
	}
	g.MarkInfeasible(excluded)
	second, err := Construct(g, s)
	if err != nil {
		t.Fatalf("Construct after MarkInfeasible: %v", err)
	}
	if _, ok := second.Workflow.Task(excluded); ok {
		t.Errorf("excluded task %q selected again", excluded)
	}
	if got, want := second.Workflow.String(), freshConstruct(t, frags, s, excluded); got != want {
		t.Errorf("post-exclusion workflow diverges from fresh graph:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEpochIncrementalRounds: the green list drives frontier re-seeding,
// so incremental construction still collects fragments round by round and
// agrees with the fresh full-collection answer.
func TestEpochIncrementalRounds(t *testing.T) {
	frags := cateringFragments(t)
	s := spec.Must(lbl("breakfast ingredients", "lunch ingredients"), lbl("breakfast served", "lunch served"))
	res, err := ConstructIncremental(context.Background(), SliceSource(frags), s, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CollectionRounds == 0 {
		t.Error("CollectionRounds = 0, want > 0")
	}
	// A repeat construction, in the supergraph the first one recycled,
	// must collect and answer identically.
	again, err := ConstructIncremental(context.Background(), SliceSource(frags), s, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := *res
	want.Workflow = again.Workflow
	if again.Workflow.String() != res.Workflow.String() || *again != want {
		t.Errorf("repeat incremental construction diverges:\ngot %+v:\n%s\nwant %+v:\n%s",
			*again, again.Workflow, *res, res.Workflow)
	}
}
