package core

import (
	"context"
	"math"
	"testing"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// freshConstruct builds a brand-new supergraph from frags (applying excl
// first) and constructs s against it — the reference result every
// epoch-reusing construction must match byte for byte.
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

// TestEpochRepeatedConstructMatchesFresh: a long-lived supergraph answering
// a sequence of different specifications yields, for every one of them, a
// workflow byte-identical to a freshly built graph's answer — epoch-stamped
// lazy resets leave no residue.
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
	}
	resets, sweeps := g.ResetStats()
	if want := uint64(len(specs)); resets != want {
		t.Errorf("resets = %d, want %d (one per Construct)", resets, want)
	}
	if sweeps != 0 {
		t.Errorf("fullSweeps = %d, want 0: ResetColoring must not touch nodes on the common path", sweeps)
	}
}

// TestEpochResetIsLazy: ResetColoring must be an O(1) epoch bump — node
// state is left physically untouched and only reads as cleared.
func TestEpochResetIsLazy(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	s := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	if _, err := Construct(g, s); err != nil {
		t.Fatal(err)
	}
	n := g.labels["breakfast served"]
	if n.color != Blue {
		t.Fatalf("goal color = %v before reset", n.color)
	}
	prevEpoch := n.epoch
	g.ResetColoring()
	// Physically untouched (lazy)...
	if n.color != Blue || n.epoch != prevEpoch {
		t.Errorf("ResetColoring touched node state: color=%v epoch=%d (was Blue/%d)", n.color, n.epoch, prevEpoch)
	}
	// ...but logically cleared.
	if c := g.LabelColor("breakfast served"); c != Uncolored {
		t.Errorf("LabelColor after reset = %v, want uncolored", c)
	}
	if _, ok := g.LabelDistance("breakfast served"); ok {
		t.Error("LabelDistance after reset still reports a distance")
	}
	if g.GreenCount() != 0 {
		t.Errorf("GreenCount after reset = %d", g.GreenCount())
	}
}

// TestEpochMarkInfeasibleAfterConstruction: excluding a task after a
// completed construction resets coloring (epoch bump) and the next
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

// TestEpochWraparound: when the epoch counter wraps around, ResetColoring
// falls back to a full sweep exactly once and constructions keep yielding
// byte-identical workflows — no stale stamp can alias the new epoch.
func TestEpochWraparound(t *testing.T) {
	frags := cateringFragments(t)
	g := supergraphOf(t, frags)
	s := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	// Populate coloring state at a normal epoch first, so the sweep has
	// real residue to clear.
	if _, err := Construct(g, s); err != nil {
		t.Fatal(err)
	}
	// Force the next reset to wrap.
	g.epoch = math.MaxUint64
	res, err := Construct(g, s)
	if err != nil {
		t.Fatalf("Construct across wraparound: %v", err)
	}
	if g.epoch != 1 {
		t.Errorf("epoch after wraparound = %d, want 1", g.epoch)
	}
	_, sweeps := g.ResetStats()
	if sweeps != 1 {
		t.Errorf("fullSweeps = %d, want exactly 1 (the wraparound)", sweeps)
	}
	if got, want := res.Workflow.String(), freshConstruct(t, frags, s); got != want {
		t.Errorf("wraparound workflow diverges from fresh graph:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And the epoch machinery keeps working after re-basing.
	res2, err := Construct(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Workflow.String() != res.Workflow.String() {
		t.Error("construction after wraparound re-base diverges")
	}
	if _, sweeps := g.ResetStats(); sweeps != 1 {
		t.Errorf("fullSweeps grew to %d after re-base; wraparound sweep must be rare", sweeps)
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
