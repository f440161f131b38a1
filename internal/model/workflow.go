package model

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"strings"
)

// Workflow is a set of tasks checked against the validity conditions of
// §2.2. Labels are implicit: the label set of a workflow is the union of
// the inputs and outputs of its tasks. Construct one with
// NewWorkflowOfTasks; the zero value is not valid.
//
// A Workflow is immutable through its public API: accessors return copies.
// Because the tasks can never change, the workflow indexes itself once, at
// construction, in sorted slices rather than maps, which cost more to
// build for a handful of tasks than their lookups save: its tasks by ID,
// one slab of label–task edges, the topological order and the inset and
// outset. Task, TaskView, Producer and ConsumersSeq binary-search them in
// O(log n); TopoOrder and Out are a copy of a precomputed slice, and
// ConsumersSeq, InSeq, OutSeq and TopoSeq iterate one — no call rescans
// every task.
type Workflow struct {
	// tasks are the workflow's tasks, sorted by ID.
	tasks []Task
	// producers holds one (label, producer) edge per produced label,
	// sorted by label (workflow validity allows one producer per label);
	// consumers one (label, consumer) edge per task input, sorted by
	// (label, task). Both are windows of one slab.
	producers, consumers []edge
	// topo caches the task IDs sorted by (DAG depth, ID) — a valid
	// topological order.
	topo []TaskID
	// in and out are the sorted source and sink labels, carved from one
	// slab.
	in, out []LabelID
}

// edge joins a label to a task producing or consuming it.
type edge struct {
	l LabelID
	t TaskID
}

// compare orders edges by label, then by task.
func (e edge) compare(o edge) int { return cmp.Or(cmp.Compare(e.l, o.l), cmp.Compare(e.t, o.t)) }

// edgeLabel compares an edge's label with l, for binary searches.
func edgeLabel(e edge, l LabelID) int { return cmp.Compare(e.l, l) }

// NewWorkflowOfTasks validates ts and wraps them as a workflow, taking
// ownership of the tasks and their label slices: it sorts ts by ID in
// place, and the caller must not retain or mutate them afterwards.
// Workflow extraction builds its tasks solely to become the workflow, so
// nothing is cloned.
func NewWorkflowOfTasks(ts []Task) (*Workflow, error) {
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("invalid workflow: %w", err)
		}
	}
	slices.SortFunc(ts, func(a, b Task) int { return cmp.Compare(a.ID, b.ID) })
	w := &Workflow{tasks: ts}
	if err := w.index(); err != nil {
		return nil, fmt.Errorf("invalid workflow: %w", err)
	}
	return w, nil
}

// index checks the validity conditions of §2.2 that span tasks and, in the
// same pass, builds the indexes. A repeated task shows as two adjacent
// equal IDs in the sorted tasks, and a label with a second producer as two
// adjacent equal labels in the producer window. The topological order
// comes from depths by a memoised walk over producers that finds a cycle
// as a task met while its own depth is being computed. Task-level validity
// is the caller's.
func (w *Workflow) index() error {
	ts := w.tasks
	if len(ts) == 0 {
		return fmt.Errorf("empty graph is not a workflow")
	}
	np, nc := 0, 0
	for i, t := range ts {
		if i > 0 && t.ID == ts[i-1].ID {
			return fmt.Errorf("task %q appears twice", t.ID)
		}
		np += len(t.Outputs)
		nc += len(t.Inputs)
	}
	es := make([]edge, np+nc)
	w.producers, w.consumers = es[:0:np], es[np:np]
	for _, t := range ts {
		for _, l := range t.Outputs {
			w.producers = append(w.producers, edge{l, t.ID})
		}
		for _, l := range t.Inputs {
			w.consumers = append(w.consumers, edge{l, t.ID})
		}
	}
	slices.SortFunc(w.producers, edge.compare)
	slices.SortFunc(w.consumers, edge.compare)
	for i := 1; i < np; i++ {
		if a, b := w.producers[i-1], w.producers[i]; a.l == b.l {
			return fmt.Errorf("label %q has two producers, %q and %q; a label may have at most one incoming edge",
				a.l, a.t, b.t)
		}
	}

	// The sources are the consumed labels nobody produces, and the sinks
	// the produced labels nobody consumes, each in label order. They are
	// staged on the stack and carved from one slab.
	var sbuf, kbuf [8]LabelID
	src, snk := sbuf[:0], kbuf[:0]
	for i, e := range w.consumers {
		if _, ok := w.Producer(e.l); !ok && (i == 0 || e.l != w.consumers[i-1].l) {
			src = append(src, e.l)
		}
	}
	for _, e := range w.producers {
		if len(w.consumersOf(e.l)) == 0 {
			snk = append(snk, e.l)
		}
	}
	ls := append(append(make([]LabelID, 0, len(src)+len(snk)), src...), snk...)
	w.in, w.out = ls[:len(src):len(src)], ls[len(src):]

	// Depths and the order are indexed by task position; a stable sort of
	// the positions by depth keeps ties in ID order.
	var buf [32]int
	s := buf[:]
	if n := 2 * len(ts); n > len(buf) {
		s = make([]int, n)
	}
	ds, order := s[:len(ts)], s[len(ts):2*len(ts)]
	for i := range ts {
		if w.depth(i, ds) < 0 {
			return fmt.Errorf("graph contains a cycle")
		}
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ds[a], ds[b]) })
	w.topo = make([]TaskID, len(ts))
	for k, i := range order {
		w.topo[k] = ts[i].ID
	}
	return nil
}

// depth returns the DAG depth of the task at position i — 0 when all its
// inputs are workflow sources, else one more than the deepest producer of
// an input — or -1 when the walk meets a task whose depth is still being
// computed: the producers lead back to it, a cycle. ds memoises the walk:
// ds[i] is 0 until the walk reaches task i, -1 while it walks the task's
// producers, and its depth plus one after.
func (w *Workflow) depth(i int, ds []int) int {
	switch {
	case ds[i] < 0:
		return -1
	case ds[i] > 0:
		return ds[i] - 1
	}
	ds[i] = -1
	d := 0
	for _, in := range w.tasks[i].Inputs {
		if p, ok := w.Producer(in); ok {
			j, _ := w.find(p)
			pd := w.depth(j, ds)
			if pd < 0 {
				return -1
			}
			d = max(d, pd+1)
		}
	}
	ds[i] = d + 1
	return d
}

// find returns the position of task id among the sorted tasks.
func (w *Workflow) find(id TaskID) (int, bool) {
	return slices.BinarySearchFunc(w.tasks, id, func(t Task, id TaskID) int { return cmp.Compare(t.ID, id) })
}

// consumersOf returns the consumer window's edges of label l.
func (w *Workflow) consumersOf(l LabelID) []edge {
	i, _ := slices.BinarySearchFunc(w.consumers, l, edgeLabel)
	j := i
	for j < len(w.consumers) && w.consumers[j].l == l {
		j++
	}
	return w.consumers[i:j]
}

// Out returns the workflow's outset W.out: its sink labels, sorted.
func (w *Workflow) Out() []LabelID { return slices.Clone(w.out) }

// InSeq yields the workflow's inset W.in, its source labels, sorted, from
// the cached slice itself.
func (w *Workflow) InSeq() iter.Seq[LabelID] { return slices.Values(w.in) }

// OutSeq yields the outset's labels, sorted, from the cached slice itself:
// Out without the copy.
func (w *Workflow) OutSeq() iter.Seq[LabelID] { return slices.Values(w.out) }

// Tasks returns copies of all tasks in lexicographic ID order.
func (w *Workflow) Tasks() []Task {
	out := make([]Task, len(w.tasks))
	for i, t := range w.tasks {
		out[i] = t.clone()
	}
	return out
}

// TaskIDs returns all task identifiers in lexicographic order.
func (w *Workflow) TaskIDs() []TaskID {
	ids := make([]TaskID, len(w.tasks))
	for i, t := range w.tasks {
		ids[i] = t.ID
	}
	return ids
}

// Task returns a copy of the task with the given ID.
func (w *Workflow) Task(id TaskID) (Task, bool) {
	t, ok := w.TaskView(id)
	if !ok {
		return Task{}, false
	}
	return t.clone(), true
}

// TaskView is Task without the copy: the task's label slices are the
// workflow's own, which the caller must not modify.
func (w *Workflow) TaskView(id TaskID) (Task, bool) {
	i, ok := w.find(id)
	if !ok {
		return Task{}, false
	}
	return w.tasks[i], true
}

// NumTasks returns the number of tasks in the workflow.
func (w *Workflow) NumTasks() int { return len(w.tasks) }

// Producer returns the task producing label l, if any. Workflow validity
// guarantees there is at most one. Served from the producer window by a
// binary search, O(log n).
func (w *Workflow) Producer(l LabelID) (TaskID, bool) {
	i, ok := slices.BinarySearchFunc(w.producers, l, edgeLabel)
	if !ok {
		return "", false
	}
	return w.producers[i].t, true
}

// ConsumersSeq yields the tasks consuming label l, sorted, from the
// consumer window itself.
func (w *Workflow) ConsumersSeq(l LabelID) iter.Seq[TaskID] {
	return func(yield func(TaskID) bool) {
		for _, e := range w.consumersOf(l) {
			if !yield(e.t) {
				return
			}
		}
	}
}

// TopoOrder returns the task IDs sorted by depth, ties broken by ID. The
// result is a valid topological order of the workflow DAG, copied from
// the cached order.
func (w *Workflow) TopoOrder() []TaskID {
	return append([]TaskID(nil), w.topo...)
}

// TopoSeq yields the task IDs in TopoOrder's order from the cached order
// itself: TopoOrder without the copy.
func (w *Workflow) TopoSeq() iter.Seq[TaskID] { return slices.Values(w.topo) }

// String renders the workflow one task per line, in ID order.
func (w *Workflow) String() string {
	var b strings.Builder
	for i, t := range w.tasks {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}
