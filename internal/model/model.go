// Package model implements the open-workflow graph model of Thomas et al.
// (WUCSE-2009-14, §2.2): workflows are bipartite directed acyclic graphs
// whose nodes are labels (data/conditions) and tasks (abstract behaviors).
//
// A task is either conjunctive (requires all of its inputs) or disjunctive
// (requires exactly one of its inputs) and produces all of its outputs.
// Nodes carry semantic identifiers; nodes with the same identifier are
// equivalent and merge when graphs are composed.
//
// A graph is a valid workflow when:
//
//  1. all sources and all sinks are labels (equivalently: every task has at
//     least one input and at least one output),
//  2. every label has at most one incoming edge (at most one producer), and
//  3. there are no duplicate nodes and no cycles.
//
// Fragments are small workflows intended for later composition. The
// paper's composition (merging identical sources and sinks) and pruning
// happen during construction, in internal/core's supergraph.
package model

import (
	"fmt"
	"strings"
)

// LabelID is the semantic identifier of a label node. Two labels with the
// same LabelID denote the same condition or data item and merge on
// composition.
type LabelID string

// TaskID is the semantic identifier of a task node. Two tasks with the same
// TaskID denote the same abstract behavior and merge on composition.
type TaskID string

// Mode states how a task consumes its inputs.
type Mode int

const (
	// Conjunctive tasks require all of their inputs before they can run.
	Conjunctive Mode = iota + 1
	// Disjunctive tasks require exactly one of their inputs.
	Disjunctive
)

// String returns the lower-case name of the mode.
func (m Mode) String() string {
	switch m {
	case Conjunctive:
		return "conjunctive"
	case Disjunctive:
		return "disjunctive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined modes.
func (m Mode) Valid() bool { return m == Conjunctive || m == Disjunctive }

// Task is a single abstract behavior or accomplishment. It does not specify
// how the behavior is performed; a service (internal/service) is a concrete
// implementation of a task. Inputs are the task's preconditions and Outputs
// its postconditions, both expressed as labels.
//
// Tasks are value types, and a Workflow's accessors return copies, so
// mutating a Task read from a workflow has no effect on the workflow.
type Task struct {
	// ID is the semantic identifier of the task.
	ID TaskID
	// Mode states whether the task needs all inputs or exactly one.
	Mode Mode
	// Inputs are the labels required before the task can be performed.
	Inputs []LabelID
	// Outputs are the labels produced by performing the task.
	Outputs []LabelID
}

// clone returns a deep copy of the task.
func (t Task) clone() Task {
	c := t
	c.Inputs = append([]LabelID(nil), t.Inputs...)
	c.Outputs = append([]LabelID(nil), t.Outputs...)
	return c
}

// HasInput reports whether l is one of the task's inputs.
func (t Task) HasInput(l LabelID) bool {
	for _, in := range t.Inputs {
		if in == l {
			return true
		}
	}
	return false
}

// HasOutput reports whether l is one of the task's outputs.
func (t Task) HasOutput(l LabelID) bool {
	for _, out := range t.Outputs {
		if out == l {
			return true
		}
	}
	return false
}

// Validate checks the task in isolation: a defined mode, at least one input
// and one output (so that the task is never a source or a sink of a
// workflow), and no duplicate labels within the input or output list.
func (t Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("task has empty ID")
	}
	if !t.Mode.Valid() {
		return fmt.Errorf("task %q: invalid mode %d", t.ID, int(t.Mode))
	}
	if len(t.Inputs) == 0 {
		return fmt.Errorf("task %q: no inputs (tasks may not be sources)", t.ID)
	}
	if len(t.Outputs) == 0 {
		return fmt.Errorf("task %q: no outputs (tasks may not be sinks)", t.ID)
	}
	if d := firstDuplicate(t.Inputs); d != "" {
		return fmt.Errorf("task %q: duplicate input label %q", t.ID, d)
	}
	if d := firstDuplicate(t.Outputs); d != "" {
		return fmt.Errorf("task %q: duplicate output label %q", t.ID, d)
	}
	for _, in := range t.Inputs {
		if t.HasOutput(in) {
			return fmt.Errorf("task %q: label %q is both input and output (self-cycle)", t.ID, in)
		}
	}
	return nil
}

func firstDuplicate(ls []LabelID) LabelID {
	seen := make(map[LabelID]struct{}, len(ls))
	for _, l := range ls {
		if _, ok := seen[l]; ok {
			return l
		}
		seen[l] = struct{}{}
	}
	return ""
}

// String renders the task as "id: in1,in2 -> out1,out2 (mode)".
func (t Task) String() string {
	var b strings.Builder
	b.WriteString(string(t.ID))
	b.WriteString(": ")
	for i, in := range t.Inputs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(in))
	}
	b.WriteString(" -> ")
	for i, out := range t.Outputs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(out))
	}
	fmt.Fprintf(&b, " (%s)", t.Mode)
	return b.String()
}
