package model

import (
	"fmt"
	"slices"
	"strings"
)

// Fragment is a small workflow — possibly a single task — that encodes one
// participant's knowhow and is intended to be composed into larger
// workflows. Fragments carry a name so that hosts and logs can refer to
// them; the name has no semantic meaning (node identity is what merges).
type Fragment struct {
	// Name identifies the fragment for bookkeeping and logs.
	Name string
	// Tasks are the fragment's task nodes. Labels are implicit, as in
	// Workflow: the fragment's labels are the union of task inputs/outputs.
	Tasks []Task
}

// NewFragment builds a fragment from tasks and validates it: the task set
// must form a valid (small) workflow.
func NewFragment(name string, tasks ...Task) (*Fragment, error) {
	f := &Fragment{Name: name, Tasks: make([]Task, 0, len(tasks))}
	for _, t := range tasks {
		f.Tasks = append(f.Tasks, t.clone())
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// MustFragment is NewFragment that panics on error; it is intended for
// statically known fragment literals in examples and tests.
func MustFragment(name string, tasks ...Task) *Fragment {
	f, err := NewFragment(name, tasks...)
	if err != nil {
		panic(fmt.Sprintf("openwf: invalid fragment %q: %v", name, err))
	}
	return f
}

// Validate checks that the fragment is a valid workflow, each task listed
// once.
func (f *Fragment) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("fragment has empty name")
	}
	// The workflow sorts the tasks it is given, so it gets its own list,
	// which leaves the fragment's order — and its wire bytes — as they
	// are; it only reads the tasks' labels, so those are shared.
	if _, err := NewWorkflowOfTasks(slices.Clone(f.Tasks)); err != nil {
		return fmt.Errorf("fragment %q: %w", f.Name, err)
	}
	return nil
}

// ConsumesAny reports whether any task of the fragment consumes any of
// labels. Fragment managers use this to answer knowhow queries for the
// exploration frontier; a frontier is a handful of labels, so a list scan
// beats building a set per query.
func (f *Fragment) ConsumesAny(labels []LabelID) bool {
	for _, t := range f.Tasks {
		for _, in := range t.Inputs {
			if slices.Contains(labels, in) {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the fragment.
func (f *Fragment) Clone() *Fragment {
	c := &Fragment{Name: f.Name, Tasks: make([]Task, 0, len(f.Tasks))}
	for _, t := range f.Tasks {
		c.Tasks = append(c.Tasks, t.clone())
	}
	return c
}

// String renders the fragment as "name{task; task; ...}".
func (f *Fragment) String() string {
	var b strings.Builder
	b.WriteString(f.Name)
	b.WriteByte('{')
	for i, t := range f.Tasks {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}

// SingleTaskFragment wraps one task as a fragment named after the task.
// The evaluation harness distributes knowledge as single-task fragments.
func SingleTaskFragment(t Task) (*Fragment, error) {
	return NewFragment("frag:"+string(t.ID), t)
}
