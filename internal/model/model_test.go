package model

import (
	"strings"
	"testing"
)

func task(id TaskID, mode Mode, ins, outs []LabelID) Task {
	return Task{ID: id, Mode: mode, Inputs: ins, Outputs: outs}
}

func labels(ls ...string) []LabelID {
	out := make([]LabelID, len(ls))
	for i, l := range ls {
		out[i] = LabelID(l)
	}
	return out
}

func TestModeString(t *testing.T) {
	if Conjunctive.String() != "conjunctive" {
		t.Errorf("Conjunctive.String() = %q", Conjunctive.String())
	}
	if Disjunctive.String() != "disjunctive" {
		t.Errorf("Disjunctive.String() = %q", Disjunctive.String())
	}
	if got := Mode(0).String(); !strings.Contains(got, "0") {
		t.Errorf("Mode(0).String() = %q, want to mention 0", got)
	}
}

func TestModeValid(t *testing.T) {
	if !Conjunctive.Valid() || !Disjunctive.Valid() {
		t.Error("defined modes must be valid")
	}
	if Mode(0).Valid() || Mode(3).Valid() {
		t.Error("undefined modes must be invalid")
	}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name    string
		task    Task
		wantErr string
	}{
		{"ok", task("t", Conjunctive, labels("a"), labels("b")), ""},
		{"empty id", task("", Conjunctive, labels("a"), labels("b")), "empty ID"},
		{"bad mode", Task{ID: "t", Inputs: labels("a"), Outputs: labels("b")}, "invalid mode"},
		{"no inputs", task("t", Conjunctive, nil, labels("b")), "no inputs"},
		{"no outputs", task("t", Conjunctive, labels("a"), nil), "no outputs"},
		{"dup input", task("t", Conjunctive, labels("a", "a"), labels("b")), "duplicate input"},
		{"dup output", task("t", Conjunctive, labels("a"), labels("b", "b")), "duplicate output"},
		{"self cycle", task("t", Conjunctive, labels("a"), labels("a")), "both input and output"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.task.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestTaskHasInputOutput(t *testing.T) {
	tk := task("t", Conjunctive, labels("a", "b"), labels("c"))
	if !tk.HasInput("a") || !tk.HasInput("b") || tk.HasInput("c") {
		t.Error("HasInput misreports")
	}
	if !tk.HasOutput("c") || tk.HasOutput("a") {
		t.Error("HasOutput misreports")
	}
}

func TestTaskString(t *testing.T) {
	tk := task("cook", Disjunctive, labels("eggs", "flour"), labels("meal"))
	got := tk.String()
	for _, want := range []string{"cook", "eggs,flour", "meal", "disjunctive"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

func TestTaskCloneIndependence(t *testing.T) {
	tk := task("t", Conjunctive, labels("a"), labels("b"))
	c := tk.clone()
	c.Inputs[0] = "zzz"
	if tk.Inputs[0] != "a" {
		t.Error("clone shares input slice with original")
	}
}

func TestGraphAddTask(t *testing.T) {
	g := NewGraph()
	if err := g.AddTask(task("t", Conjunctive, labels("a"), labels("b"))); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	// Identical re-add is a no-op.
	if err := g.AddTask(task("t", Conjunctive, labels("a"), labels("b"))); err != nil {
		t.Fatalf("idempotent AddTask: %v", err)
	}
	if g.NumTasks() != 1 {
		t.Fatalf("NumTasks = %d, want 1", g.NumTasks())
	}
	// Conflicting re-add fails.
	if err := g.AddTask(task("t", Disjunctive, labels("a"), labels("b"))); err == nil {
		t.Fatal("conflicting AddTask succeeded, want error")
	}
	// Invalid task fails.
	if err := g.AddTask(task("", Conjunctive, labels("a"), labels("b"))); err == nil {
		t.Fatal("invalid task accepted")
	}
}

func TestGraphAddTaskOrderInsensitiveMerge(t *testing.T) {
	g := NewGraph()
	if err := g.AddTask(task("t", Conjunctive, labels("a", "b"), labels("c", "d"))); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTask(task("t", Conjunctive, labels("b", "a"), labels("d", "c"))); err != nil {
		t.Fatalf("re-add with permuted labels should merge: %v", err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Disjunctive, labels("b"), labels("c")))

	if got := g.NumLabels(); got != 3 {
		t.Errorf("NumLabels = %d, want 3", got)
	}
	if ids := g.TaskIDs(); len(ids) != 2 || ids[0] != "t1" || ids[1] != "t2" {
		t.Errorf("TaskIDs = %v", ids)
	}
	if ps := g.Producers("b"); len(ps) != 1 || ps[0] != "t1" {
		t.Errorf("Producers(b) = %v", ps)
	}
	if cs := g.Consumers("b"); len(cs) != 1 || cs[0] != "t2" {
		t.Errorf("Consumers(b) = %v", cs)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != "a" {
		t.Errorf("Sources = %v", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != "c" {
		t.Errorf("Sinks = %v", snk)
	}
	if _, ok := g.Task("t1"); !ok {
		t.Error("Task(t1) not found")
	}
	if _, ok := g.Task("zz"); ok {
		t.Error("Task(zz) found")
	}
}

func TestGraphTaskReturnsCopy(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t", Conjunctive, labels("a"), labels("b")))
	got, _ := g.Task("t")
	got.Inputs[0] = "zzz"
	again, _ := g.Task("t")
	if again.Inputs[0] != "a" {
		t.Error("Task() exposed internal slice")
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t", Conjunctive, labels("a"), labels("b")))
	c := g.Clone()
	c.RemoveTask("t")
	if g.NumTasks() != 1 {
		t.Error("Clone shares task map")
	}
}

func TestGraphValidateThreeCycle(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Conjunctive, labels("b"), labels("c")))
	if err := g.Validate(); err != nil {
		t.Errorf("chain rejected: %v", err)
	}
	mustAdd(t, g, task("t3", Conjunctive, labels("c"), labels("a")))
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestGraphValidate(t *testing.T) {
	g := NewGraph()
	if err := g.Validate(); err == nil {
		t.Error("empty graph validated")
	}
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	// Two producers of the same label.
	mustAdd(t, g, task("t2", Conjunctive, labels("c"), labels("b")))
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "producers") {
		t.Errorf("multi-producer not rejected: %v", err)
	}
}

func TestGraphValidateCycle(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Conjunctive, labels("b"), labels("a2")))
	mustAdd(t, g, task("t3", Conjunctive, labels("a2"), labels("z")))
	if err := g.Validate(); err != nil {
		t.Fatalf("chain rejected: %v", err)
	}
	g2 := NewGraph()
	mustAdd(t, g2, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g2, task("t2", Conjunctive, labels("b"), labels("c")))
	mustAdd(t, g2, task("t3", Conjunctive, labels("c", "x"), labels("a")))
	err := g2.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not rejected: %v", err)
	}
}

func TestGraphUnion(t *testing.T) {
	g1 := NewGraph()
	mustAdd(t, g1, task("t1", Conjunctive, labels("a"), labels("b")))
	g2 := NewGraph()
	mustAdd(t, g2, task("t2", Conjunctive, labels("b"), labels("c")))
	if err := g1.Union(g2); err != nil {
		t.Fatalf("Union: %v", err)
	}
	if g1.NumTasks() != 2 {
		t.Errorf("NumTasks = %d after union", g1.NumTasks())
	}
}

func TestGraphString(t *testing.T) {
	g := NewGraph()
	mustAdd(t, g, task("t1", Conjunctive, labels("a"), labels("b")))
	mustAdd(t, g, task("t2", Conjunctive, labels("b"), labels("c")))
	s := g.String()
	if !strings.Contains(s, "t1") || !strings.Contains(s, "t2") {
		t.Errorf("String() = %q", s)
	}
}

func mustAdd(t *testing.T, g *Graph, tk Task) {
	t.Helper()
	if err := g.AddTask(tk); err != nil {
		t.Fatalf("AddTask(%v): %v", tk, err)
	}
}

func TestSortedIDs(t *testing.T) {
	ls := SortedLabelIDs(map[LabelID]struct{}{"b": {}, "a": {}, "c": {}})
	if len(ls) != 3 || ls[0] != "a" || ls[2] != "c" {
		t.Errorf("SortedLabelIDs = %v", ls)
	}
	ts := SortedTaskIDs(map[TaskID]struct{}{"y": {}, "x": {}})
	if len(ts) != 2 || ts[0] != "x" {
		t.Errorf("SortedTaskIDs = %v", ts)
	}
}
