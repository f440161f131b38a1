// Package core implements the open-workflow construction algorithm of
// Thomas et al. (§3.1, Algorithm 1): workflow fragments gathered from the
// community are merged into a *workflow supergraph* — a unified view of all
// known actions that may contain cycles, multiply-produced labels, and
// irrelevant branches — and a two-phase node-coloring process extracts a
// valid workflow satisfying a specification from it.
//
//   - Exploration phase: starting from the triggering labels ι (distance
//     0), nodes reachable from ι are colored green and annotated with a
//     distance; a disjunctive node needs one green parent, a conjunctive
//     node needs all parents green.
//   - Pruning phase: starting from the goal labels ω (colored purple), the
//     algorithm walks backwards, choosing the minimum-distance green parent
//     for disjunctive nodes and all parents for conjunctive nodes, coloring
//     chosen nodes and edges blue. The blue subgraph is the constructed
//     workflow.
//
// The package also implements the incremental variant described in the
// paper: because coloring requires only local knowledge, fragments are
// pulled from the community on demand, only where needed to extend the
// supergraph along the boundary of the colored region.
//
// Every node that carries coloring state is on the green list (see
// DESIGN.md §3): resetting between constructions clears that list's nodes,
// and every phase of a construction walks only the explored (green)
// region, so repeated constructions against a long-lived supergraph cost
// O(explored), not O(graph).
package core

import (
	"fmt"
	"math"
	"sync"

	"openwf/internal/model"
)

// Color is the marking applied to supergraph nodes during construction.
type Color uint8

const (
	// Uncolored nodes have not been reached by exploration.
	Uncolored Color = iota
	// Green marks nodes proven reachable from the triggering labels ι.
	Green
	// Purple marks nodes on the boundary of the blue region during the
	// pruning phase: selected for the workflow but with prerequisites
	// still to process.
	Purple
	// Blue marks nodes (and edges) selected into the final workflow.
	Blue
)

// String returns the color name.
func (c Color) String() string {
	switch c {
	case Uncolored:
		return "uncolored"
	case Green:
		return "green"
	case Purple:
		return "purple"
	case Blue:
		return "blue"
	default:
		return fmt.Sprintf("Color(%d)", uint8(c))
	}
}

// nodeKind distinguishes the two sides of the bipartite graph.
type nodeKind uint8

const (
	labelNode nodeKind = iota + 1
	taskNode
)

// infinity is the initial distance of every node.
const infinity = math.MaxInt

// node is a supergraph vertex. Label nodes are disjunctive (any producer
// suffices); task nodes carry the task's own mode.
type node struct {
	kind  nodeKind
	label model.LabelID // set for label nodes
	task  model.TaskID  // set for task nodes
	mode  model.Mode    // Disjunctive for labels; task mode for tasks

	parents  []*node
	children []*node

	// color, distance and blueParents are the coloring state. A node
	// holds any only while it is on the supergraph's green list, which
	// is what lets ResetColoring walk that list alone.
	color    Color
	distance int

	// infeasible marks a task that no participant can perform (service
	// feasibility filtering) or that a constraint excludes. Infeasible
	// nodes are never colored.
	infeasible bool
	// placeholder marks a task node created by MarkInfeasible before
	// any fragment defined the task; the first fragment mentioning it
	// fills in the wiring (the infeasibility mark is kept).
	placeholder bool

	// blueParents records, after pruning, which parent edges were
	// colored blue (the edges of the constructed workflow). The backing
	// array is retained across resets and reused.
	blueParents []*node
}

func (n *node) id() string {
	if n.kind == labelNode {
		return "L:" + string(n.label)
	}
	return "T:" + string(n.task)
}

// Supergraph is the union of collected workflow fragments plus the
// coloring state of an in-progress construction. It is not safe for
// concurrent use: a Workspace or one ConstructIncremental call owns it.
type Supergraph struct {
	labels map[model.LabelID]*node
	tasks  map[model.TaskID]*node

	// labelOrder and taskOrder hold the nodes in insertion order. They
	// replace per-construction map-iteration-plus-sort: insertion order
	// is deterministic for a deterministic merge sequence, so every
	// full-graph walk (recycle, invariant checks) iterates them directly
	// without allocating.
	labelOrder []*node
	taskOrder  []*node

	// fragments records the names of merged fragments (dedup).
	fragments map[string]struct{}

	// placeholders counts the task nodes MarkInfeasible created that no
	// fragment has defined yet; NumTasks leaves them out.
	placeholders int

	// spare holds the nodes of an earlier construction that recycle
	// released, for newNode to reuse with their adjacency arrays.
	spare []*node

	// queried and checked are construct's sets of the labels asked
	// about and the tasks whose feasibility is known, cleared at the
	// start of every construction.
	queried map[model.LabelID]struct{}
	checked map[model.TaskID]struct{}

	// green lists the nodes colored since the last reset, in coloring
	// order. It is the explored region: frontier re-seeding, feasibility
	// checks, workflow extraction and the reset walk this list instead
	// of the whole graph.
	green []*node

	// work is the scratch worklist shared by the exploration and
	// pruning phases; its backing array is reused across constructions.
	work []*node

	// frontier and toCheck are the lists a collection round and a
	// feasibility check lend to the knowledge source and the checker,
	// valid for the call only; their backing arrays are reused.
	frontier []model.LabelID
	toCheck  []model.TaskID
}

// NewSupergraph returns an empty supergraph.
func NewSupergraph() *Supergraph {
	return &Supergraph{
		labels:    make(map[model.LabelID]*node),
		tasks:     make(map[model.TaskID]*node),
		fragments: make(map[string]struct{}),
		queried:   make(map[model.LabelID]struct{}),
		checked:   make(map[model.TaskID]struct{}),
	}
}

// graphPool holds the supergraphs ConstructIncremental has finished with,
// emptied by recycle.
var graphPool = sync.Pool{New: func() any { return NewSupergraph() }}

// recycle empties the graph for another construction while keeping its
// memory: every node goes to the spare list with its adjacency arrays
// truncated, the maps are cleared (keeping their buckets), and the
// coloring is reset. A recycled graph constructs exactly like a new one.
func (g *Supergraph) recycle() {
	for _, order := range [2][]*node{g.labelOrder, g.taskOrder} {
		for _, n := range order {
			*n = node{parents: n.parents[:0], children: n.children[:0], blueParents: n.blueParents[:0]}
			g.spare = append(g.spare, n)
		}
	}
	g.labelOrder, g.taskOrder = g.labelOrder[:0], g.taskOrder[:0]
	clear(g.labels)
	clear(g.tasks)
	clear(g.fragments)
	g.placeholders = 0
	g.ResetColoring()
}

// newNode returns an uncolored node, reusing a spare one when there is.
func (g *Supergraph) newNode(kind nodeKind, label model.LabelID, task model.TaskID, mode model.Mode) *node {
	var n *node
	if k := len(g.spare); k > 0 {
		n, g.spare = g.spare[k-1], g.spare[:k-1]
	} else {
		n = new(node)
	}
	n.kind, n.label, n.task, n.mode, n.distance = kind, label, task, mode, infinity
	return n
}

// labelFor returns (creating if needed) the node for a label.
func (g *Supergraph) labelFor(l model.LabelID) *node {
	n, ok := g.labels[l]
	if !ok {
		n = g.newNode(labelNode, l, "", model.Disjunctive)
		g.labels[l] = n
		g.labelOrder = append(g.labelOrder, n)
	}
	return n
}

// AddFragment merges a fragment into the supergraph. Fragments already
// merged (by name) are skipped; tasks already present (by semantic ID)
// merge by identity. It returns the number of new task nodes added, and an
// error if a task ID arrives with a conflicting definition.
func (g *Supergraph) AddFragment(f *model.Fragment) (int, error) {
	if _, seen := g.fragments[f.Name]; seen {
		return 0, nil
	}
	added := 0
	for _, t := range f.Tasks {
		n, err := g.addTask(t)
		if err != nil {
			return added, fmt.Errorf("fragment %q: %w", f.Name, err)
		}
		if n {
			added++
		}
	}
	g.fragments[f.Name] = struct{}{}
	return added, nil
}

// addTask inserts one task node, wiring label parents/children. It reports
// whether a new node was created.
func (g *Supergraph) addTask(t model.Task) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	if existing, ok := g.tasks[t.ID]; ok {
		if !existing.placeholder {
			if !sameTaskShape(existing, t) {
				return false, fmt.Errorf("task %q already present with a different definition", t.ID)
			}
			return false, nil
		}
		existing.placeholder = false
		g.placeholders--
		existing.mode = t.Mode
		g.wireTask(existing, t)
		return true, nil
	}
	n := g.newNode(taskNode, "", t.ID, t.Mode)
	g.tasks[t.ID] = n
	g.taskOrder = append(g.taskOrder, n)
	g.wireTask(n, t)
	return true, nil
}

// wireTask connects a task node to its input and output label nodes.
func (g *Supergraph) wireTask(n *node, t model.Task) {
	for _, in := range t.Inputs {
		l := g.labelFor(in)
		n.parents = append(n.parents, l)
		l.children = append(l.children, n)
	}
	for _, out := range t.Outputs {
		l := g.labelFor(out)
		n.children = append(n.children, l)
		l.parents = append(l.parents, n)
	}
}

// sameTaskShape compares a task node's wiring against a task definition.
func sameTaskShape(n *node, t model.Task) bool {
	if n.mode != t.Mode {
		return false
	}
	ins := make(map[model.LabelID]struct{}, len(n.parents))
	for _, p := range n.parents {
		ins[p.label] = struct{}{}
	}
	if len(ins) != len(t.Inputs) {
		return false
	}
	for _, in := range t.Inputs {
		if _, ok := ins[in]; !ok {
			return false
		}
	}
	outs := make(map[model.LabelID]struct{}, len(n.children))
	for _, c := range n.children {
		outs[c.label] = struct{}{}
	}
	if len(outs) != len(t.Outputs) {
		return false
	}
	for _, out := range t.Outputs {
		if _, ok := outs[out]; !ok {
			return false
		}
	}
	return true
}

// MarkInfeasible excludes a task from construction: it will never be
// colored, as if no fragment had mentioned it. Used for service
// feasibility filtering and for specification-level task exclusions.
// Marking resets any coloring, since reachability may have depended on the
// task; callers re-run exploration afterwards.
func (g *Supergraph) MarkInfeasible(t model.TaskID) {
	n, ok := g.tasks[t]
	if !ok {
		// Record the exclusion even before the task is collected; the
		// first fragment defining the task fills in the wiring.
		n = g.newNode(taskNode, "", t, model.Conjunctive)
		n.placeholder = true
		g.placeholders++
		g.tasks[t] = n
		g.taskOrder = append(g.taskOrder, n)
	}
	if n.infeasible {
		return
	}
	n.infeasible = true
	g.ResetColoring()
}

// MarkFeasible undoes MarkInfeasible: the task may be colored again.
// Like marking, clearing resets the coloring (reachability may change).
// Workspaces use it to undo per-construction exclusions before returning
// to their pool. A placeholder node created by a premature
// MarkInfeasible keeps its (empty) wiring; with no parents it remains
// uncolorable until a fragment defines the task.
func (g *Supergraph) MarkFeasible(t model.TaskID) {
	n, ok := g.tasks[t]
	if !ok || !n.infeasible {
		return
	}
	n.infeasible = false
	g.ResetColoring()
}

// Infeasible reports whether a task is marked infeasible.
func (g *Supergraph) Infeasible(t model.TaskID) bool {
	n, ok := g.tasks[t]
	return ok && n.infeasible
}

// ResetColoring clears all colors and distances, keeping the merged graph
// and infeasibility marks. Only the nodes on the green list carry coloring
// state, so the reset walks that list: O(explored), not O(graph).
func (g *Supergraph) ResetColoring() {
	for _, n := range g.green {
		n.color, n.distance, n.blueParents = Uncolored, infinity, n.blueParents[:0]
	}
	g.green = g.green[:0]
}

// NumTasks returns the number of tasks the merged fragments define
// (including infeasible ones; not a placeholder MarkInfeasible made for a
// task no fragment has defined).
func (g *Supergraph) NumTasks() int { return len(g.tasks) - g.placeholders }

// NumFragments returns the number of distinct fragments merged so far.
func (g *Supergraph) NumFragments() int { return len(g.fragments) }

// GreenCount returns the number of currently green nodes — the size of the
// region explored by the last construction, an evaluation metric.
func (g *Supergraph) GreenCount() int { return len(g.green) }
