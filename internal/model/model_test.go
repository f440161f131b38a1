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

// workflowOf wraps tasks as a workflow, failing the test if they are not
// one.
func workflowOf(t *testing.T, ts ...Task) *Workflow {
	t.Helper()
	w, err := NewWorkflowOfTasks(ts)
	if err != nil {
		t.Fatalf("NewWorkflowOfTasks(%v): %v", ts, err)
	}
	return w
}

// validate is NewWorkflowOfTasks run for its verdict alone.
func validate(ts ...Task) error {
	_, err := NewWorkflowOfTasks(ts)
	return err
}

// TestGraphAddTask: a workflow takes each task once, valid, whatever a
// repeat of it says.
func TestGraphAddTask(t *testing.T) {
	if w := workflowOf(t, task("t", Conjunctive, labels("a"), labels("b"))); w.NumTasks() != 1 {
		t.Fatalf("NumTasks = %d, want 1", w.NumTasks())
	}
	for _, repeat := range []Task{
		task("t", Conjunctive, labels("a"), labels("b")),
		task("t", Disjunctive, labels("a"), labels("b")),
	} {
		if err := validate(task("t", Conjunctive, labels("a"), labels("b")), repeat); err == nil ||
			!strings.Contains(err.Error(), "appears twice") {
			t.Errorf("repeated task %v: %v, want an appears-twice error", repeat, err)
		}
	}
	if err := validate(task("", Conjunctive, labels("a"), labels("b"))); err == nil {
		t.Fatal("invalid task accepted")
	}
}

// TestGraphAddTaskOrderInsensitiveMerge: the order of a task's inputs and
// outputs is not part of its identity.
func TestGraphAddTaskOrderInsensitiveMerge(t *testing.T) {
	w1 := workflowOf(t, task("t", Conjunctive, labels("a", "b"), labels("c", "d")))
	w2 := workflowOf(t, task("t", Conjunctive, labels("b", "a"), labels("d", "c")))
	if !w1.Equal(w2) || !w2.Equal(w1) {
		t.Error("workflows differing only in label order are not Equal")
	}
}

func TestGraphAccessors(t *testing.T) {
	w := workflowOf(t,
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Disjunctive, labels("b"), labels("c")))

	if ids := w.TaskIDs(); len(ids) != 2 || ids[0] != "t1" || ids[1] != "t2" {
		t.Errorf("TaskIDs = %v", ids)
	}
	if p, ok := w.Producer("b"); !ok || p != "t1" {
		t.Errorf("Producer(b) = %v, %v", p, ok)
	}
	if cs := w.Consumers("b"); len(cs) != 1 || cs[0] != "t2" {
		t.Errorf("Consumers(b) = %v", cs)
	}
	if src := w.In(); len(src) != 1 || src[0] != "a" {
		t.Errorf("In = %v", src)
	}
	if snk := w.Out(); len(snk) != 1 || snk[0] != "c" {
		t.Errorf("Out = %v", snk)
	}
	if _, ok := w.Task("t1"); !ok {
		t.Error("Task(t1) not found")
	}
	if _, ok := w.Task("zz"); ok {
		t.Error("Task(zz) found")
	}
}

func TestGraphTaskReturnsCopy(t *testing.T) {
	w := workflowOf(t, task("t", Conjunctive, labels("a"), labels("b")))
	got, _ := w.Task("t")
	got.Inputs[0] = "zzz"
	again, _ := w.Task("t")
	if again.Inputs[0] != "a" {
		t.Error("Task() exposed internal slice")
	}
}

// TestGraphCloneIndependence: Tasks returns copies.
func TestGraphCloneIndependence(t *testing.T) {
	w := workflowOf(t, task("t", Conjunctive, labels("a"), labels("b")))
	ts := w.Tasks()
	ts[0].Inputs[0] = "zzz"
	if again, _ := w.Task("t"); again.Inputs[0] != "a" {
		t.Error("Tasks() exposed internal slice")
	}
}

func TestGraphValidateThreeCycle(t *testing.T) {
	t1 := task("t1", Conjunctive, labels("a"), labels("b"))
	t2 := task("t2", Conjunctive, labels("b"), labels("c"))
	if err := validate(t1, t2); err != nil {
		t.Errorf("chain rejected: %v", err)
	}
	t3 := task("t3", Conjunctive, labels("c"), labels("a"))
	if err := validate(t1, t2, t3); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestGraphValidate(t *testing.T) {
	if err := validate(); err == nil {
		t.Error("empty graph validated")
	}
	t1 := task("t1", Conjunctive, labels("a"), labels("b"))
	if err := validate(t1); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	// Two producers of the same label.
	err := validate(t1, task("t2", Conjunctive, labels("c"), labels("b")))
	if err == nil || !strings.Contains(err.Error(), "producers") {
		t.Errorf("multi-producer not rejected: %v", err)
	}
}

func TestGraphValidateCycle(t *testing.T) {
	if err := validate(
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Conjunctive, labels("b"), labels("a2")),
		task("t3", Conjunctive, labels("a2"), labels("z")),
	); err != nil {
		t.Fatalf("chain rejected: %v", err)
	}
	err := validate(
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Conjunctive, labels("b"), labels("c")),
		task("t3", Conjunctive, labels("c", "x"), labels("a")),
	)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not rejected: %v", err)
	}
}

func TestGraphString(t *testing.T) {
	w := workflowOf(t,
		task("t2", Conjunctive, labels("b"), labels("c")),
		task("t1", Conjunctive, labels("a"), labels("b")))
	s := w.String()
	if !strings.HasPrefix(s, "t1") || !strings.Contains(s, "\nt2") {
		t.Errorf("String() = %q, want t1 then t2", s)
	}
}
