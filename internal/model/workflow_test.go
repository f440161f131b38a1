package model

import (
	"slices"
	"strings"
	"testing"
)

// chainWorkflow builds a -> t1 -> b -> t2 -> c.
func chainWorkflow(t *testing.T) *Workflow {
	t.Helper()
	return workflowOf(t,
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Conjunctive, labels("b"), labels("c")))
}

func TestNewWorkflowRejectsInvalid(t *testing.T) {
	if err := validate(
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Conjunctive, labels("c"), labels("b")),
	); err == nil {
		t.Fatal("NewWorkflowOfTasks accepted a multi-producer graph")
	}
}

func TestWorkflowInOut(t *testing.T) {
	w := chainWorkflow(t)
	if in := w.in; len(in) != 1 || in[0] != "a" {
		t.Errorf("inset = %v", in)
	}
	if out := w.Out(); len(out) != 1 || out[0] != "c" {
		t.Errorf("Out = %v", out)
	}
}

// TestWorkflowImmutability: every slice an accessor returns is the
// caller's.
func TestWorkflowImmutability(t *testing.T) {
	w := chainWorkflow(t)
	w.Out()[0] = "zzz"
	w.TaskIDs()[0] = "zzz"
	w.TopoOrder()[0] = "zzz"
	if w.Out()[0] != "c" || w.TaskIDs()[0] != "t1" || w.TopoOrder()[0] != "t1" {
		t.Error("an accessor exposed an internal slice")
	}
}

func TestWorkflowProducerConsumers(t *testing.T) {
	w := chainWorkflow(t)
	if p, ok := w.Producer("b"); !ok || p != "t1" {
		t.Errorf("Producer(b) = %v, %v", p, ok)
	}
	if _, ok := w.Producer("a"); ok {
		t.Error("Producer(a) should not exist")
	}
	if cs := slices.Collect(w.ConsumersSeq("b")); len(cs) != 1 || cs[0] != "t2" {
		t.Errorf("ConsumersSeq(b) = %v", cs)
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for range w.ConsumersSeq("b") {
			n++
		}
	}); allocs != 0 {
		t.Errorf("ConsumersSeq allocates %.1f times per loop, want none", allocs)
	}
}

func TestWorkflowDepthsAndTopoOrder(t *testing.T) {
	// diamond: a -> t1 -> b ; a -> t2 -> c ; b,c -> t3 -> d, given deepest
	// first so that ID order alone would not do.
	w := workflowOf(t,
		task("t3", Conjunctive, labels("b", "c"), labels("d")),
		task("t2", Conjunctive, labels("a"), labels("c")),
		task("t1", Conjunctive, labels("a"), labels("b")))
	// t1 and t2 have depth 0, t3 depth 1.
	if order := w.TopoOrder(); !slices.Equal(order, []TaskID{"t1", "t2", "t3"}) {
		t.Errorf("TopoOrder = %v, want [t1 t2 t3]", order)
	}
}

// equal reports whether two workflows have identical task sets: the
// property tests' oracle of sameness. Input and output order is not
// significant: the edge windows are sorted.
func equal(w, o *Workflow) bool {
	return slices.EqualFunc(w.tasks, o.tasks, func(t, ot Task) bool { return t.ID == ot.ID && t.Mode == ot.Mode }) &&
		slices.Equal(w.producers, o.producers) && slices.Equal(w.consumers, o.consumers)
}

func TestWorkflowEqual(t *testing.T) {
	w1 := chainWorkflow(t)
	w2 := chainWorkflow(t)
	if !equal(w1, w2) {
		t.Error("identical workflows not Equal")
	}
	w3 := workflowOf(t, task("t1", Conjunctive, labels("a"), labels("b")))
	if equal(w1, w3) {
		t.Error("different workflows Equal")
	}
}

func TestWorkflowString(t *testing.T) {
	w := chainWorkflow(t)
	if s := w.String(); !strings.Contains(s, "t1") {
		t.Errorf("String = %q", s)
	}
}

func TestFragmentValidate(t *testing.T) {
	if _, err := NewFragment("f", task("t", Conjunctive, labels("a"), labels("b"))); err != nil {
		t.Fatalf("valid fragment rejected: %v", err)
	}
	if _, err := NewFragment("", task("t", Conjunctive, labels("a"), labels("b"))); err == nil {
		t.Error("empty fragment name accepted")
	}
	// Fragments must be valid workflows: a two-producer fragment fails.
	_, err := NewFragment("f",
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Conjunctive, labels("c"), labels("b")))
	if err == nil {
		t.Error("invalid fragment accepted")
	}
	// A fragment lists each task once, even an identical repeat.
	_, err = NewFragment("f",
		task("t", Conjunctive, labels("a"), labels("b")),
		task("t", Conjunctive, labels("a"), labels("b")))
	if err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Errorf("fragment listing a task twice: %v, want an appears-twice error", err)
	}
}

// TestFragmentValidateKeepsOrder: validating a fragment leaves its tasks
// in the order they were listed, the order they are encoded in.
func TestFragmentValidateKeepsOrder(t *testing.T) {
	f := &Fragment{Name: "f", Tasks: []Task{
		task("t2", Conjunctive, labels("b"), labels("c")),
		task("t1", Conjunctive, labels("a"), labels("b")),
	}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := []TaskID{f.Tasks[0].ID, f.Tasks[1].ID}; !slices.Equal(got, []TaskID{"t2", "t1"}) {
		t.Errorf("Validate reordered the fragment's tasks to %v", got)
	}
}

func TestMustFragmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFragment did not panic on invalid input")
		}
	}()
	MustFragment("")
}

// TestFragmentConsumesAny: the knowhow scan keeps its input's order,
// appends the fragments it selects themselves, and selects them all for
// nil labels.
func TestFragmentConsumesAny(t *testing.T) {
	f := MustFragment("f", task("t", Conjunctive, labels("a", "b"), labels("c")))
	if !f.consumesAny(labels("b")) {
		t.Error("consumesAny(b) = false")
	}
	if f.consumesAny(labels("c")) {
		t.Error("consumesAny(c) = true; c is an output")
	}
	g := MustFragment("g", task("u", Conjunctive, labels("c"), labels("d")))
	frags := []*Fragment{f, g}
	for _, tc := range []struct {
		labels []LabelID
		want   []*Fragment
	}{
		{labels("d", "a"), []*Fragment{f}},
		{labels("c", "b"), frags},
		{labels("d"), nil},
		{[]LabelID{}, nil},
		{nil, frags},
	} {
		if got := AppendConsuming(nil, frags, tc.labels); !slices.Equal(got, tc.want) {
			t.Errorf("AppendConsuming(%v) = %v, want %v", tc.labels, got, tc.want)
		}
	}
	if got := AppendConsuming([]*Fragment{g}, frags, labels("a")); !slices.Equal(got, []*Fragment{g, f}) {
		t.Errorf("AppendConsuming onto [g] = %v", got)
	}
}

func TestFragmentCloneAndString(t *testing.T) {
	f := MustFragment("f", task("t", Conjunctive, labels("a"), labels("b")))
	c := f.Clone()
	c.Tasks[0].Inputs[0] = "zzz"
	if f.Tasks[0].Inputs[0] != "a" {
		t.Error("Clone shares task slices")
	}
	if s := f.String(); !strings.Contains(s, "f{") {
		t.Errorf("String = %q", s)
	}
}

func TestSingleTaskFragment(t *testing.T) {
	f, err := SingleTaskFragment(task("cook", Disjunctive, labels("a"), labels("b")))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "frag:cook" || len(f.Tasks) != 1 {
		t.Errorf("SingleTaskFragment = %v", f)
	}
}

// compose is §2.2's composition of two workflows with disjoint task sets:
// the workflow of both's tasks, in which identical labels merge.
func compose(a, b *Workflow) (*Workflow, error) {
	return NewWorkflowOfTasks(append(a.Tasks(), b.Tasks()...))
}

func TestCompose(t *testing.T) {
	w1 := workflowOf(t, task("t1", Conjunctive, labels("a"), labels("b")))
	w2 := workflowOf(t, task("t2", Conjunctive, labels("b"), labels("c")))
	w, err := compose(w1, w2)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if in := w.in; len(in) != 1 || in[0] != "a" {
		t.Errorf("composed inset = %v", in)
	}
	if out := w.Out(); len(out) != 1 || out[0] != "c" {
		t.Errorf("composed Out = %v", out)
	}
}

// TestComposePaperExample reproduces the §2.2 example: W1 with sources
// {a,b,c} and sinks {d,e,f}, W2 with sources {c,d,e} and sinks {g,h},
// composing into W with sources {a,b,c} and sinks {f,g,h}.
func TestComposePaperExample(t *testing.T) {
	w1 := workflowOf(t, task("w1", Conjunctive, labels("a", "b", "c"), labels("d", "e", "f")))
	w2 := workflowOf(t, task("w2", Conjunctive, labels("c", "d", "e"), labels("g", "h")))
	w, err := compose(w1, w2)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if got, want := w.in, labels("a", "b", "c"); !slices.Equal(got, want) {
		t.Errorf("inset = %v, want %v", got, want)
	}
	if got, want := w.Out(), labels("f", "g", "h"); !slices.Equal(got, want) {
		t.Errorf("Out = %v, want %v", got, want)
	}
}

func TestComposeNotComposable(t *testing.T) {
	// Both produce b: the union gives b two producers.
	w1 := workflowOf(t, task("t1", Conjunctive, labels("a"), labels("b")))
	w2 := workflowOf(t, task("t2", Conjunctive, labels("c"), labels("b")))
	if _, err := compose(w1, w2); err == nil {
		t.Error("compose succeeded for non-composable pair")
	}
}
