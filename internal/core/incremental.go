package core

import (
	"context"
	"fmt"
	"slices"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// KnowledgeSource supplies workflow fragments on demand. During incremental
// construction the engine queries the community only for fragments that can
// extend the supergraph at the boundary of the colored region: fragments
// containing a task that consumes one of the frontier labels.
//
// The community implementation issues Fragment Messages to every member's
// Fragment Manager; tests use in-memory sources.
type KnowledgeSource interface {
	// FragmentsConsuming returns every known fragment containing at
	// least one task that consumes at least one of the given labels.
	// Returning a fragment more than once across calls is permitted;
	// merging is idempotent. The labels are valid only for the call: a
	// source that keeps them — a query left queued on a stalled link —
	// copies them. The returned slice is read before the next call. The
	// context cancels in-flight community queries.
	FragmentsConsuming(ctx context.Context, labels []model.LabelID) ([]*model.Fragment, error)
}

// FeasibilityChecker answers service-feasibility queries: which of the
// given tasks can no member of the community perform. Construction excludes
// such tasks so that the workflow only contains allocatable work
// (the Service Feasibility Messages of the paper's architecture, Fig. 3).
type FeasibilityChecker interface {
	// InfeasibleTasks returns the subset of tasks that no participant
	// can perform. The tasks are valid only for the call; a checker
	// that keeps them copies them. The context cancels in-flight
	// community queries.
	InfeasibleTasks(ctx context.Context, tasks []model.TaskID) ([]model.TaskID, error)
}

// IncrementalOptions tune ConstructIncremental.
type IncrementalOptions struct {
	// Feasibility, when non-nil, filters tasks that nobody can perform.
	Feasibility FeasibilityChecker
	// Exclude lists tasks that must not be used (specification
	// constraint §5.1); they are marked infeasible up front.
	Exclude []model.TaskID
}

// ConstructIncremental builds a workflow for s by pulling fragments from
// src on demand, per the paper's incremental strategy: "we build the
// supergraph incrementally, drawing from the community only the fragments
// that we need to extend the supergraph along the boundaries of the
// colored region." It is the construction loop (construct) started on an
// empty supergraph. The supergraph is a recycled one — the nodes, adjacency
// arrays and maps of an earlier construction, emptied — and goes back to
// the pool on every return; the result is copied out of it.
func ConstructIncremental(ctx context.Context, src KnowledgeSource, s spec.Spec, opts IncrementalOptions) (*Result, error) {
	g := graphPool.Get().(*Supergraph)
	for _, t := range opts.Exclude {
		g.MarkInfeasible(t)
	}
	res, err := construct(ctx, g, src, s, opts.Feasibility)
	g.recycle()
	graphPool.Put(g)
	return res, err
}

// frontierLabels returns the green labels not yet queried, in coloring
// order (deterministic for a deterministic merge sequence). The triggering
// labels are green from the first exploration pass, so they are part of
// the first frontier. Walking the supergraph's green list keeps the
// boundary scan proportional to the explored region, not the graph. The
// list is the graph's scratch, overwritten by the next call.
func frontierLabels(g *Supergraph, queried map[model.LabelID]struct{}) []model.LabelID {
	out := g.frontier[:0]
	for _, n := range g.green {
		if n.kind != labelNode {
			continue
		}
		if _, done := queried[n.label]; done {
			continue
		}
		out = append(out, n.label)
	}
	g.frontier = out
	return out
}

// checkFeasibility queries the checker for green tasks not yet checked, in
// ID order, and marks the infeasible ones. (Purple and blue nodes were
// green before selection and still count.) It returns how many tasks were
// newly marked.
func checkFeasibility(ctx context.Context, g *Supergraph, checker FeasibilityChecker, checked map[model.TaskID]struct{}) (int, error) {
	if checker == nil {
		return 0, nil
	}
	toCheck := g.toCheck[:0]
	for _, n := range g.green {
		if n.kind != taskNode {
			continue
		}
		if _, done := checked[n.task]; !done {
			toCheck = append(toCheck, n.task)
		}
	}
	slices.Sort(toCheck)
	g.toCheck = toCheck
	if len(toCheck) == 0 {
		return 0, nil
	}
	infeasible, err := checker.InfeasibleTasks(ctx, toCheck)
	if err != nil {
		return 0, fmt.Errorf("feasibility check: %w", err)
	}
	for _, id := range toCheck {
		checked[id] = struct{}{}
	}
	for _, id := range infeasible {
		g.MarkInfeasible(id)
	}
	return len(infeasible), nil
}

// SliceSource is a KnowledgeSource over an in-memory fragment list: the
// source of the package's tests and of the property tests' oracle.
type SliceSource []*model.Fragment

var _ KnowledgeSource = SliceSource(nil)

// FragmentsConsuming implements KnowledgeSource.
func (s SliceSource) FragmentsConsuming(_ context.Context, labels []model.LabelID) ([]*model.Fragment, error) {
	return model.AppendConsuming(nil, s, labels), nil
}

// CollectAll merges every fragment of the list into a fresh supergraph —
// all the knowledge first, construction second (§3.1's simplifying
// assumption): a Store's workspaces and the algorithm benchmarks are built
// this way.
func CollectAll(frags []*model.Fragment) (*Supergraph, error) {
	g := NewSupergraph()
	for _, f := range frags {
		if _, err := g.AddFragment(f); err != nil {
			return nil, err
		}
	}
	return g, nil
}
