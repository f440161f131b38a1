package core

import (
	"errors"
	"strings"
	"testing"

	"openwf/internal/model"
	"openwf/internal/spec"
)

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func ctask(id string, ins, outs []model.LabelID) model.Task {
	return model.Task{ID: model.TaskID(id), Mode: model.Conjunctive, Inputs: ins, Outputs: outs}
}

func dtask(id string, ins, outs []model.LabelID) model.Task {
	return model.Task{ID: model.TaskID(id), Mode: model.Disjunctive, Inputs: ins, Outputs: outs}
}

func frag(t *testing.T, name string, tasks ...model.Task) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, tasks...)
	if err != nil {
		t.Fatalf("fragment %q: %v", name, err)
	}
	return f
}

// cateringFragments encodes Figure 1 of the paper: the knowledge available
// in the corporate catering facility.
func cateringFragments(t *testing.T) []*model.Fragment {
	t.Helper()
	return []*model.Fragment{
		frag(t, "pancakes",
			ctask("make pancakes", lbl("breakfast ingredients"), lbl("buffet items prepared")),
			ctask("serve breakfast buffet", lbl("buffet items prepared"), lbl("breakfast served"))),
		frag(t, "omelets-setup",
			ctask("set out ingredients", lbl("breakfast ingredients"), lbl("omelet bar setup"))),
		frag(t, "omelets-cook",
			ctask("cook omelets", lbl("omelet bar setup"), lbl("breakfast served"))),
		frag(t, "doughnuts",
			ctask("pick up doughnuts", lbl("doughnuts ordered"), lbl("doughnuts available")),
			ctask("set out doughnuts", lbl("doughnuts available"), lbl("breakfast served"))),
		frag(t, "lunch-prep",
			ctask("prepare soup and salad", lbl("lunch ingredients"), lbl("lunch prepared"))),
		frag(t, "lunch-tables",
			ctask("serve tables", lbl("lunch prepared"), lbl("lunch served"))),
		frag(t, "lunch-buffet",
			ctask("serve buffet", lbl("lunch prepared"), lbl("lunch served"))),
		frag(t, "box-lunches",
			ctask("pick up box lunches", lbl("box lunches ordered"), lbl("box lunches available")),
			ctask("set out box lunches", lbl("box lunches available"), lbl("lunch served"))),
	}
}

func supergraphOf(t *testing.T, frags []*model.Fragment) *Supergraph {
	t.Helper()
	g, err := CollectAll(frags)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConstructCatering(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	s := spec.Must(lbl("breakfast ingredients", "lunch ingredients"), lbl("breakfast served", "lunch served"))

	res, err := Construct(g, s)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	w := res.Workflow
	if !s.Satisfies(w) {
		t.Fatalf("result does not satisfy spec:\n%v", w)
	}
	// Breakfast must come from ingredients (doughnuts were not ordered).
	if _, ok := w.Task("pick up doughnuts"); ok {
		t.Error("doughnut path selected although doughnuts were not ordered")
	}
	if _, ok := w.Task("set out box lunches"); ok {
		t.Error("box lunch path selected although box lunches were not ordered")
	}
	// Exactly one producer of each goal.
	if _, ok := w.Producer("breakfast served"); !ok {
		t.Error("no producer of breakfast served")
	}
	if _, ok := w.Producer("lunch served"); !ok {
		t.Error("no producer of lunch served")
	}
	if _, err := model.NewWorkflowOfTasks(w.Tasks()); err != nil {
		t.Errorf("result not a valid workflow: %v", err)
	}
}

// TestConstructCateringChefAbsent: without the master chef's fragment the
// omelet knowhow is never collected, so another breakfast alternative is
// chosen (paper §2.1).
func TestConstructCateringChefAbsent(t *testing.T) {
	var frags []*model.Fragment
	for _, f := range cateringFragments(t) {
		if f.Name == "omelets-cook" {
			continue
		}
		frags = append(frags, f)
	}
	g := supergraphOf(t, frags)
	s := spec.Must(lbl("breakfast ingredients", "lunch ingredients"), lbl("breakfast served", "lunch served"))
	res, err := Construct(g, s)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	if _, ok := res.Workflow.Task("cook omelets"); ok {
		t.Error("omelet path selected although the chef is absent")
	}
	if _, ok := res.Workflow.Task("make pancakes"); !ok {
		t.Error("pancake alternative not selected")
	}
}

// TestConstructCateringDoughnutsOrdered: with doughnuts ordered as an
// additional trigger, the doughnut path is shortest (2 tasks of depth 4 vs
// pancake 2 tasks; tie broken deterministically) and remains available
// even when both kitchen paths are missing.
func TestConstructCateringDoughnutsOnly(t *testing.T) {
	var frags []*model.Fragment
	for _, f := range cateringFragments(t) {
		if f.Name == "pancakes" || f.Name == "omelets-setup" || f.Name == "omelets-cook" {
			continue
		}
		frags = append(frags, f)
	}
	g := supergraphOf(t, frags)
	s := spec.Must(lbl("doughnuts ordered", "lunch ingredients"), lbl("breakfast served", "lunch served"))
	res, err := Construct(g, s)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	if _, ok := res.Workflow.Task("pick up doughnuts"); !ok {
		t.Error("doughnut path not selected")
	}
}

func TestConstructNoSolution(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	// Nothing triggers the lunch branch.
	s := spec.Must(lbl("breakfast ingredients"), lbl("lunch served"))
	_, err := Construct(g, s)
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("Construct = %v, want ErrNoSolution", err)
	}
}

func TestConstructUnknownGoal(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	s := spec.Must(lbl("breakfast ingredients"), lbl("world peace"))
	_, err := Construct(g, s)
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("Construct = %v, want ErrNoSolution", err)
	}
}

func TestConstructInvalidSpec(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	if _, err := Construct(g, spec.Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestConstructPrefersShortestPath: with two alternatives of different
// length, the disjunctive min-distance rule picks the shorter.
func TestConstructPrefersShortestPath(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "long1", ctask("a2b", lbl("a"), lbl("b"))),
		frag(t, "long2", ctask("b2c", lbl("b"), lbl("c"))),
		frag(t, "long3", ctask("c2goal", lbl("c"), lbl("goal"))),
		frag(t, "short", ctask("a2goal", lbl("a"), lbl("goal"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a"), lbl("goal")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflow.NumTasks() != 1 {
		t.Fatalf("selected %d tasks, want 1 (shortest path):\n%v",
			res.Workflow.NumTasks(), res.Workflow)
	}
	if _, ok := res.Workflow.Task("a2goal"); !ok {
		t.Error("short path not selected")
	}
}

// TestConstructConjunctiveRequiresAllInputs: a conjunctive task is only
// reachable when every input is derivable; and when selected, all its
// inputs' paths are in the workflow.
func TestConstructConjunctive(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("makeX", lbl("a"), lbl("x"))),
		frag(t, "f2", ctask("makeY", lbl("b"), lbl("y"))),
		frag(t, "f3", ctask("combine", lbl("x", "y"), lbl("goal"))),
	}
	g := supergraphOf(t, frags)

	// Only a available: conjunctive combine unreachable.
	if _, err := Construct(g, spec.Must(lbl("a"), lbl("goal"))); !errors.Is(err, ErrNoSolution) {
		t.Fatalf("want ErrNoSolution with missing input, got %v", err)
	}

	res, err := Construct(g, spec.Must(lbl("a", "b"), lbl("goal")))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []model.TaskID{"makeX", "makeY", "combine"} {
		if _, ok := res.Workflow.Task(id); !ok {
			t.Errorf("task %q missing from conjunctive workflow", id)
		}
	}
}

// TestConstructDisjunctiveTaskPicksOneInput: a disjunctive task keeps only
// its chosen input in the constructed workflow (input pruning).
func TestConstructDisjunctiveTaskPicksOneInput(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("makeX", lbl("a"), lbl("x"))),
		frag(t, "f2", ctask("makeY", lbl("a"), lbl("y"))),
		frag(t, "f3", dtask("either", lbl("x", "y"), lbl("goal"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a"), lbl("goal")))
	if err != nil {
		t.Fatal(err)
	}
	either, ok := res.Workflow.Task("either")
	if !ok {
		t.Fatal("task either missing")
	}
	if len(either.Inputs) != 1 {
		t.Errorf("disjunctive task kept %d inputs, want 1: %v", len(either.Inputs), either.Inputs)
	}
	if res.Workflow.NumTasks() != 2 {
		t.Errorf("workflow has %d tasks, want 2 (one producer + either):\n%v",
			res.Workflow.NumTasks(), res.Workflow)
	}
}

// TestConstructHandlesCycles: the supergraph may contain cycles; the
// constructed workflow must not.
func TestConstructHandlesCycles(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", dtask("fwd", lbl("a", "back"), lbl("mid"))),
		frag(t, "f2", ctask("loop", lbl("mid"), lbl("back"))),
		frag(t, "f3", ctask("fin", lbl("mid"), lbl("goal"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a"), lbl("goal")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.NewWorkflowOfTasks(res.Workflow.Tasks()); err != nil {
		t.Fatalf("cyclic selection: %v", err)
	}
	if _, ok := res.Workflow.Task("loop"); ok {
		t.Error("cycle-forming task selected unnecessarily")
	}
}

// TestConstructExcludesUndesiredOutputs: tasks producing extra outputs keep
// only the demanded ones in the workflow (output pruning), except that a
// selected task always keeps at least the outputs that were demanded.
func TestConstructPrunesUndesiredOutputs(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("multi", lbl("a"), lbl("goal", "waste"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a"), lbl("goal")))
	if err != nil {
		t.Fatal(err)
	}
	multi, _ := res.Workflow.Task("multi")
	if multi.HasOutput("waste") {
		t.Errorf("undesired output not pruned: %v", multi)
	}
}

// TestConstructReusesSharedProducer: two goals that share a prerequisite
// reuse a single producer task rather than duplicating work.
func TestConstructReusesSharedProducer(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("base", lbl("a"), lbl("mid"))),
		frag(t, "f2", ctask("g1", lbl("mid"), lbl("goal1"))),
		frag(t, "f3", ctask("g2", lbl("mid"), lbl("goal2"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a"), lbl("goal1", "goal2")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflow.NumTasks() != 3 {
		t.Errorf("workflow has %d tasks, want 3:\n%v", res.Workflow.NumTasks(), res.Workflow)
	}
}

// TestConstructRepeatable: Construct resets coloring, so the same
// supergraph answers different specifications in sequence.
func TestConstructRepeatable(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	s1 := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	s2 := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	if _, err := Construct(g, s1); err != nil {
		t.Fatalf("first construct: %v", err)
	}
	res, err := Construct(g, s2)
	if err != nil {
		t.Fatalf("second construct: %v", err)
	}
	if _, ok := res.Workflow.Task("prepare soup and salad"); !ok {
		t.Error("second construction incorrect")
	}
	// And the first again.
	if _, err := Construct(g, s1); err != nil {
		t.Fatalf("third construct: %v", err)
	}
}

func TestMarkInfeasibleExcludesTask(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	g.MarkInfeasible("serve tables")
	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	res, err := Construct(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Workflow.Task("serve tables"); ok {
		t.Error("infeasible task selected")
	}
	if _, ok := res.Workflow.Task("serve buffet"); !ok {
		t.Error("feasible alternative not selected (paper: wait staff absent → buffet service)")
	}
	if !g.Infeasible("serve tables") {
		t.Error("Infeasible(serve tables) = false")
	}
	if g.Infeasible("serve buffet") {
		t.Error("Infeasible(serve buffet) = true")
	}
}

func TestMarkInfeasibleBeforeCollection(t *testing.T) {
	g := NewSupergraph()
	g.MarkInfeasible("serve tables")
	for _, f := range cateringFragments(t) {
		if _, err := g.AddFragment(f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Construct(g, spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Workflow.Task("serve tables"); ok {
		t.Error("pre-excluded task selected")
	}
}

func TestSupergraphAccessors(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	if g.NumFragments() != 8 {
		t.Errorf("NumFragments = %d, want 8", g.NumFragments())
	}
	if g.NumTasks() != 11 {
		t.Errorf("NumTasks = %d, want 11", g.NumTasks())
	}
	if g.NumLabels() != 11 {
		t.Errorf("NumLabels = %d, want 11", g.NumLabels())
	}
	// Re-adding a fragment is a no-op.
	n, err := g.AddFragment(cateringFragments(t)[0])
	if err != nil || n != 0 {
		t.Errorf("re-AddFragment = (%d, %v), want (0, nil)", n, err)
	}
	s := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	if _, err := Construct(g, s); err != nil {
		t.Fatal(err)
	}
	if c := g.TaskColor("cook omelets"); c != Blue {
		t.Errorf("TaskColor(cook omelets) = %v", c)
	}
	if c := g.LabelColor("breakfast served"); c != Blue {
		t.Errorf("LabelColor(breakfast served) = %v", c)
	}
	if c := g.TaskColor("no such task"); c != Uncolored {
		t.Errorf("TaskColor(missing) = %v", c)
	}
	if c := g.LabelColor("no such label"); c != Uncolored {
		t.Errorf("LabelColor(missing) = %v", c)
	}
	if d, ok := g.LabelDistance("breakfast ingredients"); !ok || d != 0 {
		t.Errorf("LabelDistance(trigger) = %d, %v", d, ok)
	}
	if _, ok := g.LabelDistance("box lunches available"); ok {
		t.Error("unreached label has a distance")
	}
	if g.GreenCount() == 0 {
		t.Error("GreenCount = 0 after construction")
	}
}

func TestColorString(t *testing.T) {
	for c, want := range map[Color]string{
		Uncolored: "uncolored", Green: "green", Purple: "purple", Blue: "blue",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if got := Color(9).String(); !strings.Contains(got, "9") {
		t.Errorf("Color(9).String() = %q", got)
	}
}

func TestAddFragmentConflict(t *testing.T) {
	g := NewSupergraph()
	if _, err := g.AddFragment(frag(t, "f1", ctask("t", lbl("a"), lbl("b")))); err != nil {
		t.Fatal(err)
	}
	// Same task ID, different shape, different fragment name.
	_, err := g.AddFragment(frag(t, "f2", ctask("t", lbl("a", "c"), lbl("b"))))
	if err == nil {
		t.Fatal("conflicting task definition accepted")
	}
}

// TestConstructDistanceInvariant: after exploration, every green node's
// distance exceeds that of at least one (disjunctive) or all (conjunctive)
// of its green parents — the invariant behind pruning termination.
func TestConstructDistanceInvariant(t *testing.T) {
	g := supergraphOf(t, cateringFragments(t))
	s := spec.Must(lbl("breakfast ingredients", "lunch ingredients", "doughnuts ordered", "box lunches ordered"),
		lbl("breakfast served", "lunch served"))
	if _, err := Construct(g, s); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.labelOrder {
		if n.colorAt(g.epoch) == Uncolored || n.distance == 0 {
			continue
		}
		ok := false
		for _, p := range n.parents {
			if p.colorAt(g.epoch) != Uncolored && p.distance < n.distance {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("label %q at distance %d has no closer colored parent", n.label, n.distance)
		}
	}
}

// TestConstructGoalInteriorCorner documents the W.out = ω corner case: if
// one goal label necessarily feeds the derivation of another goal, the
// constructed graph cannot have both as sinks, and the strict
// specification form is unsatisfiable (see DESIGN.md).
func TestConstructGoalInteriorCorner(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("makeMid", lbl("a"), lbl("mid"))),
		frag(t, "f2", ctask("midToEnd", lbl("mid"), lbl("end"))),
	}
	g := supergraphOf(t, frags)
	// Both mid and end are goals, but end is derivable only through
	// mid, which therefore cannot be a sink.
	_, err := Construct(g, spec.Must(lbl("a"), lbl("end", "mid")))
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution for interior goal", err)
	}
}

// TestConstructIndependentGoals: multiple goals on independent branches
// are all satisfied.
func TestConstructIndependentGoals(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("g1maker", lbl("a"), lbl("goal1"))),
		frag(t, "f2", ctask("g2maker", lbl("a"), lbl("goal2"))),
		frag(t, "f3", ctask("g3maker", lbl("b"), lbl("goal3"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a", "b"), lbl("goal1", "goal2", "goal3")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflow.NumTasks() != 3 {
		t.Fatalf("workflow:\n%v", res.Workflow)
	}
}

// TestConstructTriggerWithKnownProducer: a triggering label that some task
// could produce is still treated as given (distance 0); the producer is
// not scheduled.
func TestConstructTriggerWithKnownProducer(t *testing.T) {
	frags := []*model.Fragment{
		frag(t, "f1", ctask("makeA", lbl("raw"), lbl("a"))),
		frag(t, "f2", ctask("useA", lbl("a"), lbl("goal"))),
	}
	g := supergraphOf(t, frags)
	res, err := Construct(g, spec.Must(lbl("a"), lbl("goal")))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Workflow.Task("makeA"); ok {
		t.Error("producer of an already-available trigger was scheduled")
	}
	if res.Workflow.NumTasks() != 1 {
		t.Errorf("workflow:\n%v", res.Workflow)
	}
}
