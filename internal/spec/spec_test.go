package spec

import (
	"slices"
	"strings"
	"testing"

	"openwf/internal/model"
	"openwf/internal/testutil"
)

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name     string
		triggers []model.LabelID
		goals    []model.LabelID
		wantErr  string
	}{
		{"ok", lbl("a"), lbl("b"), ""},
		{"no triggers", nil, lbl("b"), "no triggering"},
		{"no goals", lbl("a"), nil, "no goals"},
		{"dup trigger", lbl("a", "a"), lbl("b"), "duplicate trigger"},
		{"dup goal", lbl("a"), lbl("b", "b"), "duplicate goal"},
		{"overlap", lbl("a"), lbl("a"), "both trigger and goal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.triggers, tc.goals)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewSortsLabels(t *testing.T) {
	s, err := New(lbl("c", "a", "b"), lbl("z", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Triggers[0] != "a" || s.Triggers[2] != "c" {
		t.Errorf("Triggers = %v, want sorted", s.Triggers)
	}
	if s.Goals[0] != "y" {
		t.Errorf("Goals = %v, want sorted", s.Goals)
	}
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Must did not panic")
		}
	}()
	Must(nil, nil)
}

// evaluate applies the predicate S(in, out) = in ⊆ ι ∧ out = ω to an
// inset/outset pair: the oracle of TestSatisfiesIsEvaluate, written over
// slices where Satisfies reads a workflow's sequences in place.
func evaluate(s Spec, in, out []model.LabelID) bool {
	triggers := s.triggerSet()
	for _, l := range in {
		if _, ok := triggers[l]; !ok {
			return false
		}
	}
	if len(out) != len(s.Goals) {
		return false
	}
	goals := s.GoalSet()
	for _, l := range out {
		if _, ok := goals[l]; !ok {
			return false
		}
	}
	return true
}

func TestEvaluate(t *testing.T) {
	s := Must(lbl("a", "b"), lbl("g"))
	if !evaluate(s, lbl("a"), lbl("g")) {
		t.Error("in ⊂ ι, out = ω should satisfy")
	}
	if !evaluate(s, lbl("a", "b"), lbl("g")) {
		t.Error("in = ι, out = ω should satisfy")
	}
	if evaluate(s, lbl("c"), lbl("g")) {
		t.Error("in ⊄ ι should not satisfy")
	}
	if evaluate(s, lbl("a"), lbl("g", "extra")) {
		t.Error("out ≠ ω should not satisfy")
	}
	if evaluate(s, lbl("a"), nil) {
		t.Error("empty out should not satisfy")
	}
}

func TestSatisfies(t *testing.T) {
	w, err := model.NewWorkflowOfTasks([]model.Task{{
		ID: "t", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("g"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !Must(lbl("a", "b"), lbl("g")).Satisfies(w) {
		t.Error("workflow should satisfy")
	}
	if Must(lbl("x"), lbl("g")).Satisfies(w) {
		t.Error("workflow input not in ι should not satisfy")
	}
}

// TestSatisfiesIsEvaluate: Satisfies reads the inset and outset in place
// and answers as evaluate does on their copies — an outset must be ω
// exactly, no label short and none over.
func TestSatisfiesIsEvaluate(t *testing.T) {
	w, err := model.NewWorkflowOfTasks([]model.Task{
		{ID: "t", Mode: model.Conjunctive, Inputs: lbl("a", "b"), Outputs: lbl("g")},
		{ID: "u", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("h")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Spec{
		Must(lbl("a", "b"), lbl("g", "h")),
		Must(lbl("a", "b", "c"), lbl("h", "g")),
		Must(lbl("a"), lbl("g", "h")),
		Must(lbl("a", "b"), lbl("g")),
		Must(lbl("a", "b"), lbl("g", "h", "i")),
	} {
		if got, want := s.Satisfies(w), evaluate(s, slices.Collect(w.InSeq()), w.Out()); got != want {
			t.Errorf("%v: Satisfies = %v, evaluate = %v", s, got, want)
		}
	}
}

// TestSatisfiesAllocFree: construction checks every workflow it builds
// with Satisfies, so it must not copy the workflow's inset and outset (2
// allocations when it did).
func TestSatisfiesAllocFree(t *testing.T) {
	w, err := model.NewWorkflowOfTasks([]model.Task{{
		ID: "t", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("g"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := Must(lbl("a", "b"), lbl("g"))
	testutil.AllocBound(t, 0, func() {
		if !s.Satisfies(w) {
			t.Fatal("workflow should satisfy")
		}
	})
}

func TestSets(t *testing.T) {
	s := Must(lbl("a", "b"), lbl("g"))
	if _, ok := s.triggerSet()["a"]; !ok {
		t.Error("triggerSet missing a")
	}
	if _, ok := s.GoalSet()["g"]; !ok {
		t.Error("GoalSet missing g")
	}
}

func TestString(t *testing.T) {
	s := Must(lbl("a"), lbl("g"))
	got := s.String()
	if !strings.Contains(got, "a") || !strings.Contains(got, "g") {
		t.Errorf("String = %q", got)
	}
}

func TestConstraints(t *testing.T) {
	w, err := model.NewWorkflowOfTasks([]model.Task{
		{ID: "t1", Mode: model.Conjunctive, Inputs: lbl("a"), Outputs: lbl("m")},
		{ID: "t2", Mode: model.Conjunctive, Inputs: lbl("m"), Outputs: lbl("g")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := (Constraints{}).Check(w); err != nil {
		t.Errorf("empty constraints: %v", err)
	}
	if err := (Constraints{MaxTasks: 2}).Check(w); err != nil {
		t.Errorf("MaxTasks=2: %v", err)
	}
	if err := (Constraints{MaxTasks: 1}).Check(w); err == nil {
		t.Error("MaxTasks=1 accepted a 2-task workflow")
	}
	if err := (Constraints{ExcludeTasks: []model.TaskID{"t1"}}).Check(w); err == nil {
		t.Error("excluded task present but accepted")
	}
	if err := (Constraints{ExcludeTasks: []model.TaskID{"zz"}}).Check(w); err != nil {
		t.Errorf("absent excluded task rejected: %v", err)
	}
}
