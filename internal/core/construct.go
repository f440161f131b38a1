package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// ErrNoSolution is returned when no workflow satisfying the specification
// can be composed from the available knowledge (ω is not reachable from ι).
var ErrNoSolution = errors.New("no feasible workflow for the specification")

// Result describes a successful construction.
type Result struct {
	// Workflow is the constructed workflow; it satisfies the spec.
	Workflow *model.Workflow
	// Explored is the number of supergraph nodes colored green during
	// exploration — the size of the searched region (an evaluation
	// metric: larger supergraphs make the search encounter more nodes).
	Explored int
	// SupergraphTasks is the number of tasks the supergraph's fragments
	// define at the end of construction.
	SupergraphTasks int
	// CollectionRounds is the number of community query rounds an
	// incremental construction performed (0 for a local construction).
	CollectionRounds int
	// FragmentsCollected is the number of distinct fragments merged.
	FragmentsCollected int
}

// Construct runs Algorithm 1 against an already-assembled supergraph:
// exploration from ι, then pruning back from ω. On success the blue
// subgraph is returned as a valid workflow satisfying s. The supergraph's
// coloring state is reset first (an O(1) epoch bump), so Construct may be
// called repeatedly with different specifications against the same
// knowledge without paying for the graph's size.
func Construct(g *Supergraph, s spec.Spec) (*Result, error) {
	g.ResetColoring()
	//openwf:allow-background no source and no checker: the loop runs one round and waits on nothing
	return construct(context.Background(), g, nil, s, nil)
}

// construct is the one construction loop. Each round explores as far as
// g's knowledge allows; while a goal is out of reach it asks src — when
// there is one — for the consumers of the green labels it has not asked
// about before and merges them. Once every goal is green, feas — when there
// is one — is asked about the green tasks not checked before; an infeasible
// one resets the coloring and the loop continues, possibly collecting
// alternative fragments. The blue subgraph pruned back from ω is the
// workflow. Cancellation of ctx stops the loop between rounds with
// ctx.Err().
func construct(ctx context.Context, g *Supergraph, src KnowledgeSource, s spec.Spec, feas FeasibilityChecker) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	queried, checked := g.queried, g.checked
	clear(queried)
	clear(checked)
	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		explore(g, s)
		if goalsGreen(g, s) {
			infeasible, err := checkFeasibility(ctx, g, feas, checked)
			if err != nil {
				return nil, err
			}
			if infeasible == 0 {
				break
			}
			continue // MarkInfeasible reset the coloring
		}
		// The frontier is graph scratch, lent to the source for the
		// call: a source that keeps it past the call (a query still
		// queued on a stalled link after the call timed out) copies it.
		var frontier []model.LabelID
		if src != nil {
			frontier = frontierLabels(g, queried)
		}
		if len(frontier) == 0 {
			return nil, fmt.Errorf("%w: goals %v not reachable from triggers %v after %d collection rounds",
				ErrNoSolution, missingGoals(g, s), s.Triggers, rounds)
		}
		rounds++
		frags, err := src.FragmentsConsuming(ctx, frontier)
		if err != nil {
			return nil, fmt.Errorf("collecting fragments: %w", err)
		}
		for _, l := range frontier {
			queried[l] = struct{}{}
		}
		for _, f := range frags {
			if _, err := g.AddFragment(f); err != nil {
				return nil, fmt.Errorf("merging collected fragment: %w", err)
			}
		}
	}
	if err := prune(g, s); err != nil {
		return nil, err
	}
	w, err := extract(g)
	if err != nil {
		return nil, err
	}
	if !s.Satisfies(w) {
		// This happens only in the corner case where one goal label
		// feeds another goal's derivation, making it an interior node
		// rather than a sink; the specification's strict W.out = ω
		// cannot then hold (see DESIGN.md).
		return nil, fmt.Errorf("%w: constructed workflow has outset %v, specification requires %v",
			ErrNoSolution, w.Out(), s.Goals)
	}
	return &Result{
		Workflow:           w,
		Explored:           g.GreenCount(),
		SupergraphTasks:    g.NumTasks(),
		CollectionRounds:   rounds,
		FragmentsCollected: g.NumFragments(),
	}, nil
}

// explore runs the exploration phase: a monotone worklist relaxation that
// colors nodes green with distances. It is idempotent and may be re-run
// after fragments are merged; coloring only ever extends or improves.
// Exploration stops early once every goal is green (the paper's "until
// ω ⊆ greenNodes" guard); distances at that point still satisfy the
// invariant needed by pruning (every green node has its required parents
// green at strictly smaller distance).
//
// The frontier is re-seeded from the supergraph's green list — the region
// explored by earlier passes of this epoch — so an incremental round after
// a fragment merge walks only previously-green nodes, never the whole
// graph. The worklist reuses the supergraph's scratch buffer.
func explore(g *Supergraph, s spec.Spec) {
	e := g.epoch
	goalsLeft := 0
	for _, l := range s.Goals {
		if n, ok := g.labels[l]; !ok || n.colorAt(e) != Green {
			goalsLeft++
		}
	}
	if goalsLeft == 0 {
		return
	}

	goalSet := s.GoalSet()

	// Seed: the triggering labels hold by assumption; color them green
	// at distance 0 (creating their nodes if no fragment mentions them
	// yet — the incremental variant queries for their consumers).
	for _, l := range s.Triggers {
		n := g.labelFor(l)
		n.stamp(e)
		if n.color != Green {
			n.color = Green
			n.distance = 0
			g.green = append(g.green, n)
			if _, isGoal := goalSet[n.label]; isGoal {
				goalsLeft--
			}
		}
	}
	// Re-seed the frontier: any child of a green node may have become
	// colorable after a fragment merge. The green list holds exactly the
	// triggers seeded above plus the region explored by earlier passes
	// of this epoch.
	queue, head := g.work[:0], 0
	for _, n := range g.green {
		for _, c := range n.children {
			queue = append(queue, c)
		}
	}

	for head < len(queue) && goalsLeft > 0 {
		n := queue[head]
		head++
		if n.kind == taskNode && n.infeasible {
			continue
		}
		d, ok := g.candidateDistance(n)
		if !ok {
			continue
		}
		n.stamp(e)
		if n.color == Uncolored || (n.color == Green && n.distance > d+1) {
			if n.color == Uncolored {
				g.green = append(g.green, n)
				if n.kind == labelNode {
					if _, isGoal := goalSet[n.label]; isGoal {
						goalsLeft--
					}
				}
			}
			n.color = Green
			n.distance = d + 1
			for _, c := range n.children {
				queue = append(queue, c)
			}
		}
	}
	g.work = queue[:0] // retain the grown backing array for reuse
}

// candidateDistance computes the distance a node would be assigned from
// its green parents: the minimum green-parent distance for disjunctive
// nodes, the maximum over all parents (which must all be green) for
// conjunctive nodes. ok is false when the node is not yet colorable.
func (g *Supergraph) candidateDistance(n *node) (int, bool) {
	if len(n.parents) == 0 {
		return 0, false
	}
	e := g.epoch
	if n.mode == model.Disjunctive {
		best, found := 0, false
		for _, p := range n.parents {
			if p.colorAt(e) != Uncolored {
				if !found || p.distance < best {
					best, found = p.distance, true
				}
			}
		}
		return best, found
	}
	// Conjunctive: all parents must be green.
	worst := 0
	for _, p := range n.parents {
		if p.colorAt(e) == Uncolored {
			return 0, false
		}
		if p.distance > worst {
			worst = p.distance
		}
	}
	return worst, true
}

// goalsGreen reports whether every goal label has been reached.
func goalsGreen(g *Supergraph, s spec.Spec) bool {
	for _, l := range s.Goals {
		n, ok := g.labels[l]
		if !ok || n.colorAt(g.epoch) == Uncolored {
			return false
		}
	}
	return true
}

func missingGoals(g *Supergraph, s spec.Spec) []model.LabelID {
	var out []model.LabelID
	for _, l := range s.Goals {
		if n, ok := g.labels[l]; !ok || n.colorAt(g.epoch) == Uncolored {
			out = append(out, l)
		}
	}
	return out
}

// prune runs the pruning phase: working backwards from ω with purple
// markers, it selects the minimum-distance green parent of each
// disjunctive node and all parents of each conjunctive node, coloring the
// selection blue. On return the blue nodes and blue (recorded) edges form
// the constructed workflow. Every node prune touches is green (stamped in
// the current epoch), so no epoch checks are needed past the goal seeds;
// the worklist reuses the supergraph's scratch buffer.
func prune(g *Supergraph, s spec.Spec) error {
	queue, head := g.work[:0], 0
	for _, l := range s.Goals {
		n, ok := g.labels[l]
		if !ok || n.colorAt(g.epoch) != Green {
			return fmt.Errorf("%w: goal %q not reached", ErrNoSolution, l)
		}
		n.color = Purple
		queue = append(queue, n)
	}
	for head < len(queue) {
		n := queue[head]
		head++

		selectParent := func(p *node) {
			n.blueParents = append(n.blueParents, p)
			if p.color == Green {
				p.color = Purple
				queue = append(queue, p)
			}
		}
		switch {
		case n.distance == 0:
			// A triggering label: available by assumption, no
			// prerequisites even if the supergraph knows producers.
		case n.mode == model.Disjunctive:
			p := g.minGreenParent(n)
			if p == nil {
				return fmt.Errorf("internal: purple node %s has no green parent", n.id())
			}
			selectParent(p)
		default: // conjunctive
			for _, p := range n.parents {
				selectParent(p)
			}
		}
		n.color = Blue
	}
	g.work = queue[:0]
	return nil
}

// minGreenParent returns the colored parent with minimum distance, ties
// broken by node ID for determinism. (Purple/blue parents are earlier
// selections; reusing them keeps the workflow small.)
func (g *Supergraph) minGreenParent(n *node) *node {
	e := g.epoch
	var best *node
	for _, p := range n.parents {
		if p.colorAt(e) == Uncolored {
			continue
		}
		if p.kind == taskNode && p.infeasible {
			continue
		}
		if best == nil || p.distance < best.distance ||
			(p.distance == best.distance && p.id() < best.id()) {
			best = p
		}
	}
	return best
}

// extract converts the blue subgraph into a model.Workflow. Blue nodes are
// a subset of the green list (selection never leaves the explored region),
// so extraction walks the green list, not the whole supergraph. A task's
// blue inputs are its blueParents; its blue outputs are the blue children
// whose blueParents hold it. One count sizes a single label slab every
// task's sorted inputs and outputs are carved from.
func extract(g *Supergraph) (*model.Workflow, error) {
	tasks, edges := 0, 0
	for _, n := range g.green {
		if n.color == Blue {
			edges += len(n.blueParents)
			if n.kind == taskNode {
				tasks++
			}
		}
	}
	slab := make([]model.LabelID, 0, edges)
	ts := make([]model.Task, 0, tasks)
	for _, n := range g.green {
		if n.kind != taskNode || n.color != Blue {
			continue
		}
		in := len(slab)
		for _, p := range n.blueParents {
			slab = append(slab, p.label)
		}
		out := len(slab)
		for _, c := range n.children {
			if c.colorAt(g.epoch) == Blue && slices.Contains(c.blueParents, n) {
				slab = append(slab, c.label)
			}
		}
		inputs, outputs := slab[in:out:out], slab[out:len(slab):len(slab)]
		slices.Sort(inputs)
		slices.Sort(outputs)
		ts = append(ts, model.Task{ID: n.task, Mode: n.mode, Inputs: inputs, Outputs: outputs})
	}
	w, err := model.NewWorkflowOfTasks(ts)
	if err != nil {
		return nil, fmt.Errorf("extracting workflow: %w", err)
	}
	return w, nil
}
