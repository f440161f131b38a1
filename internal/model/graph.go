package model

import (
	"fmt"
	"slices"
	"strings"
)

// Graph is a bipartite graph of labels and tasks. Labels are implicit: the
// label set of a graph is the union of the inputs and outputs of its tasks.
// A Graph is not necessarily a valid workflow — it may contain cycles,
// labels with several producers, or unreachable parts. The workflow
// supergraph assembled during construction is a Graph; a validated Graph is
// wrapped as a Workflow.
//
// The zero value is not ready for use; call NewGraph.
type Graph struct {
	tasks map[TaskID]Task
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{tasks: make(map[TaskID]Task)}
}

// AddTask inserts a copy of t into the graph. Adding a task whose ID is
// already present is an error unless the existing task is structurally
// identical (same mode, inputs, and outputs), in which case the call is a
// no-op; this gives composition its merge-by-identity semantics.
func (g *Graph) AddTask(t Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if old, ok := g.tasks[t.ID]; ok {
		if !sameTask(old, t) {
			return fmt.Errorf("task %q already present with a different definition", t.ID)
		}
		return nil
	}
	g.tasks[t.ID] = t.clone()
	return nil
}

// RemoveTask deletes the task with the given ID, if present.
func (g *Graph) RemoveTask(id TaskID) {
	delete(g.tasks, id)
}

// sameTask reports structural equality of two tasks. Input and output
// order is not significant.
func sameTask(a, b Task) bool {
	if a.ID != b.ID || a.Mode != b.Mode ||
		len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for _, in := range a.Inputs {
		if !b.HasInput(in) {
			return false
		}
	}
	for _, out := range a.Outputs {
		if !b.HasOutput(out) {
			return false
		}
	}
	return true
}

// Task returns a copy of the task with the given ID.
func (g *Graph) Task(id TaskID) (Task, bool) {
	t, ok := g.tasks[id]
	if !ok {
		return Task{}, false
	}
	return t.clone(), true
}

// NumTasks returns the number of task nodes in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// TaskIDs returns all task identifiers in lexicographic order.
func (g *Graph) TaskIDs() []TaskID {
	ids := make([]TaskID, 0, len(g.tasks))
	for id := range g.tasks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Tasks returns copies of all tasks in lexicographic ID order.
func (g *Graph) Tasks() []Task {
	out := make([]Task, 0, len(g.tasks))
	for _, id := range g.TaskIDs() {
		out = append(out, g.tasks[id].clone())
	}
	return out
}

// Labels returns the set of all labels referenced by the graph's tasks.
func (g *Graph) Labels() map[LabelID]struct{} {
	set := make(map[LabelID]struct{})
	for _, t := range g.tasks {
		for _, in := range t.Inputs {
			set[in] = struct{}{}
		}
		for _, out := range t.Outputs {
			set[out] = struct{}{}
		}
	}
	return set
}

// NumLabels returns the number of distinct labels in the graph.
func (g *Graph) NumLabels() int { return len(g.Labels()) }

// Producers returns the IDs of tasks that produce the label, sorted.
func (g *Graph) Producers(l LabelID) []TaskID {
	var out []TaskID
	for id, t := range g.tasks {
		if t.HasOutput(l) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Consumers returns the IDs of tasks that consume the label, sorted.
func (g *Graph) Consumers(l LabelID) []TaskID {
	var out []TaskID
	for id, t := range g.tasks {
		if t.HasInput(l) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Sources returns the labels with no producer (no incoming edge), sorted.
// For a valid workflow this is the inset W.in.
func (g *Graph) Sources() []LabelID {
	produced := make(map[LabelID]struct{})
	for _, t := range g.tasks {
		for _, out := range t.Outputs {
			produced[out] = struct{}{}
		}
	}
	set := make(map[LabelID]struct{})
	for _, t := range g.tasks {
		for _, in := range t.Inputs {
			if _, ok := produced[in]; !ok {
				set[in] = struct{}{}
			}
		}
	}
	return SortedLabelIDs(set)
}

// Sinks returns the labels with no consumer (no outgoing edge), sorted.
// For a valid workflow this is the outset W.out.
func (g *Graph) Sinks() []LabelID {
	consumed := make(map[LabelID]struct{})
	for _, t := range g.tasks {
		for _, in := range t.Inputs {
			consumed[in] = struct{}{}
		}
	}
	set := make(map[LabelID]struct{})
	for _, t := range g.tasks {
		for _, out := range t.Outputs {
			if _, ok := consumed[out]; !ok {
				set[out] = struct{}{}
			}
		}
	}
	return SortedLabelIDs(set)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{tasks: make(map[TaskID]Task, len(g.tasks))}
	for id, t := range g.tasks {
		c.tasks[id] = t.clone()
	}
	return c
}

// Union merges every task of other into g (merge-by-identity). It fails if
// a task ID is present in both graphs with different definitions.
func (g *Graph) Union(other *Graph) error {
	for _, t := range other.Tasks() {
		if err := g.AddTask(t); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the workflow validity conditions of §2.2:
// every task has at least one input and output (sources/sinks are labels),
// every label has at most one producer, and the graph is acyclic. Task
// -level validity (defined mode, no duplicate labels) is established by
// AddTask. An empty graph is not a valid workflow. It is the pass that
// builds a Workflow's indexes, run for its verdict alone.
func (g *Graph) Validate() error {
	w := Workflow{g: g}
	return w.index()
}

// String renders the graph one task per line, in ID order.
func (g *Graph) String() string {
	var b strings.Builder
	for i, t := range g.Tasks() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}
