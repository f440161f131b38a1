package model

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Workflow is a set of tasks checked against the validity conditions of
// §2.2. Labels are implicit: the label set of a workflow is the union of
// the inputs and outputs of its tasks. Construct one with
// NewWorkflowOfTasks; the zero value is not valid.
//
// A Workflow is immutable through its public API: accessors return copies.
// Because the tasks can never change, the producer/consumer indexes, the
// topological order and the inset and outset are computed once at
// construction and served from cache — Producer is O(1), Consumers,
// TopoOrder, In and Out are a copy of a precomputed slice — instead of
// rescanning every task per call.
type Workflow struct {
	tasks map[TaskID]Task

	// producerOf maps each label to its single producing task (workflow
	// validity guarantees at most one producer per label).
	producerOf map[LabelID]TaskID
	// consumersOf maps each label to its consuming tasks, sorted.
	consumersOf map[LabelID][]TaskID
	// topo caches the task IDs sorted by (DAG depth, ID) — a valid
	// topological order.
	topo []TaskID
	// in and out are the sorted source and sink labels, carved from one
	// slab.
	in, out []LabelID
}

// NewWorkflowOfTasks validates ts and wraps them as a workflow, taking
// ownership of the tasks and their label slices: the caller must not
// retain or mutate them afterwards. Workflow extraction builds its tasks
// solely to become the workflow, so nothing is cloned.
func NewWorkflowOfTasks(ts []Task) (*Workflow, error) {
	w := &Workflow{tasks: make(map[TaskID]Task, len(ts))}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("invalid workflow: %w", err)
		}
		if _, dup := w.tasks[t.ID]; dup {
			return nil, fmt.Errorf("invalid workflow: task %q appears twice", t.ID)
		}
		w.tasks[t.ID] = t
	}
	if err := w.index(); err != nil {
		return nil, fmt.Errorf("invalid workflow: %w", err)
	}
	return w, nil
}

// index checks the validity conditions of §2.2 that span tasks and, in the
// same pass, fills the caches: the producer map, which also finds a label
// with a second producer; the consumer lists, carved from one sorted
// (label, task) edge array; the sources and sinks; and the topological
// order, by depths from a memoised walk over producers that finds a cycle
// as a task met while its own depth is being computed. Task-level validity
// is the caller's.
func (w *Workflow) index() error {
	tasks := w.tasks
	if len(tasks) == 0 {
		return fmt.Errorf("empty graph is not a workflow")
	}
	nin, nout := 0, 0
	for _, t := range tasks {
		nin += len(t.Inputs)
		nout += len(t.Outputs)
	}
	w.producerOf = make(map[LabelID]TaskID, nout)
	for id, t := range tasks {
		for _, out := range t.Outputs {
			if p, dup := w.producerOf[out]; dup {
				return fmt.Errorf("label %q has two producers, %q and %q; a label may have at most one incoming edge",
					out, min(p, id), max(p, id))
			}
			w.producerOf[out] = id
		}
	}

	type edge struct {
		l LabelID
		t TaskID
	}
	edges := make([]edge, 0, nin)
	for id, t := range tasks {
		for _, in := range t.Inputs {
			edges = append(edges, edge{in, id})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.l, b.l), cmp.Compare(a.t, b.t))
	})
	consumers := make([]TaskID, len(edges))
	w.consumersOf = make(map[LabelID][]TaskID)
	nsrc := 0
	for i := 0; i < len(edges); {
		j := i
		for ; j < len(edges) && edges[j].l == edges[i].l; j++ {
			consumers[j] = edges[j].t
		}
		w.consumersOf[edges[i].l] = consumers[i:j:j]
		if _, ok := w.producerOf[edges[i].l]; !ok {
			nsrc++
		}
		i = j
	}

	// A source is a consumed label nobody produces, a sink a produced
	// label nobody consumes; the edges give the sources in order.
	nsink := len(w.producerOf) - (len(w.consumersOf) - nsrc)
	ls := make([]LabelID, 0, nsrc+nsink)
	for i, e := range edges {
		if _, ok := w.producerOf[e.l]; !ok && (i == 0 || e.l != edges[i-1].l) {
			ls = append(ls, e.l)
		}
	}
	for l := range w.producerOf {
		if _, ok := w.consumersOf[l]; !ok {
			ls = append(ls, l)
		}
	}
	w.in, w.out = ls[:nsrc:nsrc], ls[nsrc:]
	slices.Sort(w.out)

	depths := make(map[TaskID]int, len(tasks))
	w.topo = make([]TaskID, 0, len(tasks))
	for id := range tasks {
		if w.depth(id, depths) < 0 {
			return fmt.Errorf("graph contains a cycle")
		}
		w.topo = append(w.topo, id)
	}
	slices.SortFunc(w.topo, func(a, b TaskID) int {
		return cmp.Or(cmp.Compare(depths[a], depths[b]), cmp.Compare(a, b))
	})
	return nil
}

// depth returns the task's DAG depth — 0 when all its inputs are workflow
// sources, else one more than the deepest producer of an input — memoised
// in depths, or -1 when the walk meets a task whose depth is still being
// computed: the producers lead back to it, a cycle.
func (w *Workflow) depth(id TaskID, depths map[TaskID]int) int {
	if d, ok := depths[id]; ok {
		return d
	}
	depths[id] = -1
	d := 0
	for _, in := range w.tasks[id].Inputs {
		if p, ok := w.producerOf[in]; ok {
			pd := w.depth(p, depths)
			if pd < 0 {
				return -1
			}
			d = max(d, pd+1)
		}
	}
	depths[id] = d
	return d
}

// In returns the workflow's inset W.in: its source labels, sorted.
func (w *Workflow) In() []LabelID { return slices.Clone(w.in) }

// Out returns the workflow's outset W.out: its sink labels, sorted.
func (w *Workflow) Out() []LabelID { return slices.Clone(w.out) }

// Tasks returns copies of all tasks in lexicographic ID order.
func (w *Workflow) Tasks() []Task {
	ids := w.TaskIDs()
	out := make([]Task, len(ids))
	for i, id := range ids {
		out[i] = w.tasks[id].clone()
	}
	return out
}

// TaskIDs returns all task identifiers in lexicographic order.
func (w *Workflow) TaskIDs() []TaskID {
	ids := make([]TaskID, 0, len(w.tasks))
	for id := range w.tasks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Task returns a copy of the task with the given ID.
func (w *Workflow) Task(id TaskID) (Task, bool) {
	t, ok := w.tasks[id]
	if !ok {
		return Task{}, false
	}
	return t.clone(), true
}

// NumTasks returns the number of tasks in the workflow.
func (w *Workflow) NumTasks() int { return len(w.tasks) }

// Producer returns the task producing label l, if any. Workflow validity
// guarantees there is at most one. Served from the cached index in O(1).
func (w *Workflow) Producer(l LabelID) (TaskID, bool) {
	p, ok := w.producerOf[l]
	return p, ok
}

// Consumers returns the tasks consuming label l, sorted. The result is a
// copy of the cached index entry.
func (w *Workflow) Consumers(l LabelID) []TaskID {
	return append([]TaskID(nil), w.consumersOf[l]...)
}

// TopoOrder returns the task IDs sorted by depth, ties broken by ID. The
// result is a valid topological order of the workflow DAG, copied from
// the cached order.
func (w *Workflow) TopoOrder() []TaskID {
	return append([]TaskID(nil), w.topo...)
}

// String renders the workflow one task per line, in ID order.
func (w *Workflow) String() string {
	var b strings.Builder
	for i, id := range w.TaskIDs() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(w.tasks[id].String())
	}
	return b.String()
}

// Equal reports whether two workflows have identical task sets. Input and
// output order is not significant.
func (w *Workflow) Equal(o *Workflow) bool {
	if len(w.tasks) != len(o.tasks) {
		return false
	}
	for id, t := range w.tasks {
		ot, ok := o.tasks[id]
		if !ok || t.Mode != ot.Mode || len(t.Inputs) != len(ot.Inputs) || len(t.Outputs) != len(ot.Outputs) {
			return false
		}
		for _, in := range t.Inputs {
			if !ot.HasInput(in) {
				return false
			}
		}
		for _, out := range t.Outputs {
			if !ot.HasOutput(out) {
				return false
			}
		}
	}
	return true
}
