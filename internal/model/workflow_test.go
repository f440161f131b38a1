package model

import (
	"strings"
	"testing"
)

// chainWorkflow builds a -> t1 -> b -> t2 -> c.
func chainWorkflow(t *testing.T) *Workflow {
	t.Helper()
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Conjunctive, labels("b"), labels("c")))
	w, err := NewWorkflow(g)
	if err != nil {
		t.Fatalf("NewWorkflow: %v", err)
	}
	return w
}

func TestNewWorkflowRejectsInvalid(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Conjunctive, labels("c"), labels("b")))
	if _, err := NewWorkflow(g); err == nil {
		t.Fatal("NewWorkflow accepted a multi-producer graph")
	}
}

func TestWorkflowInOut(t *testing.T) {
	w := chainWorkflow(t)
	if in := w.In(); len(in) != 1 || in[0] != "a" {
		t.Errorf("In = %v", in)
	}
	if out := w.Out(); len(out) != 1 || out[0] != "c" {
		t.Errorf("Out = %v", out)
	}
}

func TestWorkflowImmutability(t *testing.T) {
	w := chainWorkflow(t)
	g := w.Graph()
	g.RemoveTask("t1")
	if w.NumTasks() != 2 {
		t.Error("Graph() exposed internal graph")
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
	if cs := w.Consumers("b"); len(cs) != 1 || cs[0] != "t2" {
		t.Errorf("Consumers(b) = %v", cs)
	}
}

func TestWorkflowDepthsAndTopoOrder(t *testing.T) {
	g := NewGraph()
	// diamond: a -> t1 -> b ; a -> t2 -> c ; b,c -> t3 -> d
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Conjunctive, labels("a"), labels("c")))
	mustAdd(t, g, task("t3", Conjunctive, labels("b", "c"), labels("d")))
	w, err := NewWorkflow(g)
	if err != nil {
		t.Fatal(err)
	}
	d := w.Depths()
	if d["t1"] != 0 || d["t2"] != 0 || d["t3"] != 1 {
		t.Errorf("Depths = %v", d)
	}
	order := w.TopoOrder()
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	if pos["t3"] < pos["t1"] || pos["t3"] < pos["t2"] {
		t.Errorf("TopoOrder = %v: t3 must come after t1 and t2", order)
	}
}

func TestWorkflowEqual(t *testing.T) {
	w1 := chainWorkflow(t)
	w2 := chainWorkflow(t)
	if !w1.Equal(w2) {
		t.Error("identical workflows not Equal")
	}
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	w3, _ := NewWorkflow(g)
	if w1.Equal(w3) {
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
}

func TestMustFragmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFragment did not panic on invalid input")
		}
	}()
	MustFragment("")
}

func TestFragmentConsumesAny(t *testing.T) {
	f := MustFragment("f", task("t", Conjunctive, labels("a", "b"), labels("c")))
	if !f.ConsumesAny(labels("b")) {
		t.Error("ConsumesAny(b) = false")
	}
	if f.ConsumesAny(labels("c")) {
		t.Error("ConsumesAny(c) = true; c is an output")
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
	if ids := f.TaskIDs(); len(ids) != 1 || ids[0] != "t" {
		t.Errorf("TaskIDs = %v", ids)
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

func TestCompose(t *testing.T) {
	g1 := NewGraph()
	mustAdd(t, g1, task("t1", Conjunctive, labels("a"), labels("b")))
	w1, _ := NewWorkflow(g1)
	g2 := NewGraph()
	mustAdd(t, g2, task("t2", Conjunctive, labels("b"), labels("c")))
	w2, _ := NewWorkflow(g2)

	w, err := Compose(w1, w2)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	if in := w.In(); len(in) != 1 || in[0] != "a" {
		t.Errorf("composed In = %v", in)
	}
	if out := w.Out(); len(out) != 1 || out[0] != "c" {
		t.Errorf("composed Out = %v", out)
	}
	if !Composable(w1, w2) {
		t.Error("Composable = false for composable pair")
	}
}

// TestComposePaperExample reproduces the §2.2 example: W1 with sources
// {a,b,c} and sinks {d,e,f}, W2 with sources {c,d,e} and sinks {g,h},
// composing into W with sources {a,b,c} and sinks {f,g,h}.
func TestComposePaperExample(t *testing.T) {
	g1 := NewGraph()
	mustAdd(t, g1, task("w1", Conjunctive, labels("a", "b", "c"), labels("d", "e", "f")))
	w1, err := NewWorkflow(g1)
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	mustAdd(t, g2, task("w2", Conjunctive, labels("c", "d", "e"), labels("g", "h")))
	w2, err := NewWorkflow(g2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compose(w1, w2)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	wantIn := labels("a", "b", "c")
	wantOut := labels("f", "g", "h")
	gotIn, gotOut := w.In(), w.Out()
	if len(gotIn) != len(wantIn) {
		t.Fatalf("In = %v, want %v", gotIn, wantIn)
	}
	for i := range wantIn {
		if gotIn[i] != wantIn[i] {
			t.Errorf("In[%d] = %v, want %v", i, gotIn[i], wantIn[i])
		}
	}
	if len(gotOut) != len(wantOut) {
		t.Fatalf("Out = %v, want %v", gotOut, wantOut)
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Errorf("Out[%d] = %v, want %v", i, gotOut[i], wantOut[i])
		}
	}
}

func TestComposeNotComposable(t *testing.T) {
	// Both produce b: the union gives b two producers.
	g1 := NewGraph()
	mustAdd(t, g1, task("t1", Conjunctive, labels("a"), labels("b")))
	w1, _ := NewWorkflow(g1)
	g2 := NewGraph()
	mustAdd(t, g2, task("t2", Conjunctive, labels("c"), labels("b")))
	w2, _ := NewWorkflow(g2)
	if _, err := Compose(w1, w2); err == nil {
		t.Error("Compose succeeded for non-composable pair")
	}
	if Composable(w1, w2) {
		t.Error("Composable = true for non-composable pair")
	}
}

func TestComposeFragments(t *testing.T) {
	f1 := MustFragment("f1", task("t1", Conjunctive, labels("a"), labels("b")))
	f2 := MustFragment("f2", task("t2", Conjunctive, labels("c"), labels("b")))
	// The supergraph may be an invalid workflow (two producers of b).
	g, err := ComposeFragments([]*Fragment{f1, f2})
	if err != nil {
		t.Fatalf("ComposeFragments: %v", err)
	}
	if g.NumTasks() != 2 {
		t.Errorf("NumTasks = %d", g.NumTasks())
	}
	if err := g.Validate(); err == nil {
		t.Error("supergraph with two producers validated as workflow")
	}
}
