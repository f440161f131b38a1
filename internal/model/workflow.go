package model

import (
	"cmp"
	"fmt"
	"slices"
)

// Workflow is a Graph that has been checked against the validity conditions
// of §2.2. Construct one with NewWorkflow; the zero value is not valid.
//
// A Workflow is immutable through its public API: accessors return copies.
// Because the graph can never change, the producer/consumer indexes, task
// depths, and topological order are computed once at construction and
// served from cache — Producer is O(1), Consumers/TopoOrder are a copy of
// a precomputed slice — instead of rescanning every task per call.
type Workflow struct {
	g *Graph

	// producerOf maps each label to its single producing task (workflow
	// validity guarantees at most one producer per label).
	producerOf map[LabelID]TaskID
	// consumersOf maps each label to its consuming tasks, sorted.
	consumersOf map[LabelID][]TaskID
	// depths caches every task's DAG depth; topo caches the task IDs sorted
	// by (depth, ID) — a valid topological order.
	depths map[TaskID]int
	topo   []TaskID
}

// NewWorkflow validates g and wraps it as a workflow. The graph is cloned;
// later changes to g do not affect the workflow.
func NewWorkflow(g *Graph) (*Workflow, error) {
	return newWorkflow(g.Clone())
}

// NewWorkflowOfTasks validates ts and wraps them as a workflow, taking
// ownership of the tasks and their label slices: the caller must not
// retain or mutate them afterwards. Workflow extraction builds its tasks
// solely to become the workflow and so skips the clone AddTask makes.
func NewWorkflowOfTasks(ts []Task) (*Workflow, error) {
	g := &Graph{tasks: make(map[TaskID]Task, len(ts))}
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("invalid workflow: %w", err)
		}
		if _, dup := g.tasks[t.ID]; dup {
			return nil, fmt.Errorf("invalid workflow: task %q appears twice", t.ID)
		}
		g.tasks[t.ID] = t
	}
	return newWorkflow(g)
}

func newWorkflow(g *Graph) (*Workflow, error) {
	w := &Workflow{g: g}
	if err := w.index(); err != nil {
		return nil, fmt.Errorf("invalid workflow: %w", err)
	}
	return w, nil
}

// index checks the validity conditions of §2.2 that span tasks and, in the
// same pass, fills the caches: the producer map, which also finds a label
// with a second producer; the consumer lists, carved from one sorted
// (label, task) edge array; depths, by a memoised walk over producers that
// finds a cycle as a task met while its own depth is being computed; and
// the topological order. Task-level validity is the caller's.
func (w *Workflow) index() error {
	tasks := w.g.tasks
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
			if _, dup := w.producerOf[out]; dup {
				ps := w.g.Producers(out)
				return fmt.Errorf("label %q has %d producers (%v); a label may have at most one incoming edge",
					out, len(ps), ps)
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
	for i := 0; i < len(edges); {
		j := i
		for ; j < len(edges) && edges[j].l == edges[i].l; j++ {
			consumers[j] = edges[j].t
		}
		w.consumersOf[edges[i].l] = consumers[i:j:j]
		i = j
	}

	w.depths = make(map[TaskID]int, len(tasks))
	w.topo = make([]TaskID, 0, len(tasks))
	for id := range tasks {
		if w.depth(id) < 0 {
			return fmt.Errorf("graph contains a cycle")
		}
		w.topo = append(w.topo, id)
	}
	slices.SortFunc(w.topo, func(a, b TaskID) int {
		return cmp.Or(cmp.Compare(w.depths[a], w.depths[b]), cmp.Compare(a, b))
	})
	return nil
}

// depth returns the task's DAG depth — 0 when all its inputs are workflow
// sources, else one more than the deepest producer of an input — memoised
// in w.depths, or -1 when the walk meets a task whose depth is still being
// computed: the producers lead back to it, a cycle.
func (w *Workflow) depth(id TaskID) int {
	if d, ok := w.depths[id]; ok {
		return d
	}
	w.depths[id] = -1
	d := 0
	for _, in := range w.g.tasks[id].Inputs {
		if p, ok := w.producerOf[in]; ok {
			pd := w.depth(p)
			if pd < 0 {
				return -1
			}
			d = max(d, pd+1)
		}
	}
	w.depths[id] = d
	return d
}

// Graph returns a copy of the underlying graph.
func (w *Workflow) Graph() *Graph { return w.g.Clone() }

// In returns the workflow's inset W.in: its source labels, sorted.
func (w *Workflow) In() []LabelID { return w.g.Sources() }

// Out returns the workflow's outset W.out: its sink labels, sorted.
func (w *Workflow) Out() []LabelID { return w.g.Sinks() }

// Tasks returns copies of all tasks in lexicographic ID order.
func (w *Workflow) Tasks() []Task { return w.g.Tasks() }

// TaskIDs returns all task identifiers in lexicographic order.
func (w *Workflow) TaskIDs() []TaskID { return w.g.TaskIDs() }

// Task returns a copy of the task with the given ID.
func (w *Workflow) Task(id TaskID) (Task, bool) { return w.g.Task(id) }

// NumTasks returns the number of tasks in the workflow.
func (w *Workflow) NumTasks() int { return w.g.NumTasks() }

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

// Depths returns, for every task, its depth in the workflow DAG: tasks all
// of whose inputs are workflow sources have depth 0; otherwise a task's
// depth is one more than the maximum depth of the tasks producing its
// inputs. Depths give a topological order used to assign execution
// windows. The result is a copy of the cached map.
func (w *Workflow) Depths() map[TaskID]int {
	out := make(map[TaskID]int, len(w.depths))
	for id, d := range w.depths {
		out[id] = d
	}
	return out
}

// TopoOrder returns the task IDs sorted by depth, ties broken by ID. The
// result is a valid topological order of the workflow DAG, copied from
// the cached order.
func (w *Workflow) TopoOrder() []TaskID {
	return append([]TaskID(nil), w.topo...)
}

// String renders the workflow one task per line.
func (w *Workflow) String() string { return w.g.String() }

// Equal reports whether two workflows have identical task sets.
func (w *Workflow) Equal(o *Workflow) bool {
	if w.NumTasks() != o.NumTasks() {
		return false
	}
	for _, t := range w.Tasks() {
		ot, ok := o.Task(t.ID)
		if !ok || !sameTask(t, ot) {
			return false
		}
	}
	return true
}
