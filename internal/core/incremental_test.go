package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// countingSource wraps a SliceSource and records queried labels per round.
type countingSource struct {
	src    SliceSource
	rounds [][]model.LabelID
}

func (c *countingSource) FragmentsConsuming(ctx context.Context, labels []model.LabelID) ([]*model.Fragment, error) {
	c.rounds = append(c.rounds, append([]model.LabelID(nil), labels...))
	return c.src.FragmentsConsuming(ctx, labels)
}

func TestConstructIncrementalCatering(t *testing.T) {
	src := &countingSource{src: SliceSource(cateringFragments(t))}
	s := spec.Must(lbl("breakfast ingredients", "lunch ingredients"), lbl("breakfast served", "lunch served"))
	res, err := ConstructIncremental(context.Background(), src, s, IncrementalOptions{})
	if err != nil {
		t.Fatalf("ConstructIncremental: %v", err)
	}
	if !s.Satisfies(res.Workflow) {
		t.Fatalf("spec unsatisfied:\n%v", res.Workflow)
	}
	if res.CollectionRounds == 0 {
		t.Error("CollectionRounds = 0, want > 0")
	}
	// The doughnut and box-lunch branches are never triggered, so their
	// fragments must not have been collected: incremental construction
	// only draws what the colored region's boundary needs.
	if res.FragmentsCollected >= len(cateringFragments(t)) {
		t.Errorf("collected %d fragments, want fewer than %d (incremental should skip untriggered branches)",
			res.FragmentsCollected, len(cateringFragments(t)))
	}
	for _, round := range src.rounds {
		if slices.Contains(round, "doughnuts ordered") || slices.Contains(round, "doughnuts available") {
			t.Errorf("asked for the consumers of %v although doughnuts are never reachable", round)
		}
	}
}

func TestConstructIncrementalMatchesFullCollection(t *testing.T) {
	frags := cateringFragments(t)
	s := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))

	full := supergraphOf(t, frags)
	fullRes, err := Construct(full, s)
	if err != nil {
		t.Fatal(err)
	}
	incRes, err := ConstructIncremental(context.Background(), SliceSource(frags), s, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Incremental construction may select a different — but equally
	// feasible — alternative because it stops collecting once the goals
	// are reachable. Both results must satisfy the specification and,
	// for this knowledge base, both alternatives have two tasks.
	if !s.Satisfies(incRes.Workflow) {
		t.Errorf("incremental result violates spec:\n%v", incRes.Workflow)
	}
	if fullRes.Workflow.NumTasks() != 2 || incRes.Workflow.NumTasks() != 2 {
		t.Errorf("task counts: full=%d incremental=%d, want 2 and 2",
			fullRes.Workflow.NumTasks(), incRes.Workflow.NumTasks())
	}
}

func TestConstructIncrementalNoSolution(t *testing.T) {
	src := SliceSource(cateringFragments(t))
	s := spec.Must(lbl("breakfast ingredients"), lbl("lunch served"))
	_, err := ConstructIncremental(context.Background(), src, s, IncrementalOptions{})
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

// TestConstructIncrementalChainRounds: a chain of ten single-task
// fragments is collected one frontier at a time, ten rounds for ten tasks.
func TestConstructIncrementalChainRounds(t *testing.T) {
	var frags []*model.Fragment
	for i := 0; i < 10; i++ {
		frags = append(frags, frag(t, fmt.Sprintf("f%d", i),
			ctask(fmt.Sprintf("t%d", i),
				lbl(fmt.Sprintf("l%d", i)), lbl(fmt.Sprintf("l%d", i+1)))))
	}
	s := spec.Must(lbl("l0"), lbl("l10"))
	res, err := ConstructIncremental(context.Background(), SliceSource(frags), s, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflow.NumTasks() != 10 || res.CollectionRounds != 10 {
		t.Errorf("chain workflow has %d tasks after %d rounds, want 10 and 10",
			res.Workflow.NumTasks(), res.CollectionRounds)
	}
}

// fakeFeasibility marks a fixed set of tasks infeasible.
type fakeFeasibility struct {
	infeasible map[model.TaskID]bool
	queries    int
}

func (f *fakeFeasibility) InfeasibleTasks(_ context.Context, tasks []model.TaskID) ([]model.TaskID, error) {
	f.queries++
	var out []model.TaskID
	for _, id := range tasks {
		if f.infeasible[id] {
			out = append(out, id)
		}
	}
	return out, nil
}

// TestConstructIncrementalFeasibility reproduces the wait-staff-absent
// scenario of §2.1: nobody can serve tables, so the engine must select
// buffet service.
func TestConstructIncrementalFeasibility(t *testing.T) {
	src := SliceSource(cateringFragments(t))
	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	checker := &fakeFeasibility{infeasible: map[model.TaskID]bool{"serve tables": true}}
	res, err := ConstructIncremental(context.Background(), src, s, IncrementalOptions{Feasibility: checker})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Workflow.Task("serve tables"); ok {
		t.Error("infeasible serve tables selected")
	}
	if _, ok := res.Workflow.Task("serve buffet"); !ok {
		t.Error("serve buffet not selected")
	}
	if checker.queries == 0 {
		t.Error("feasibility checker never queried")
	}
}

// TestConstructIncrementalFeasibilityAllInfeasible: when every path is
// infeasible the construction fails.
func TestConstructIncrementalFeasibilityAllInfeasible(t *testing.T) {
	src := SliceSource(cateringFragments(t))
	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	checker := &fakeFeasibility{infeasible: map[model.TaskID]bool{
		"serve tables": true, "serve buffet": true,
	}}
	_, err := ConstructIncremental(context.Background(), src, s, IncrementalOptions{Feasibility: checker})
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestConstructIncrementalExclude(t *testing.T) {
	src := SliceSource(cateringFragments(t))
	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))
	res, err := ConstructIncremental(context.Background(), src, s, IncrementalOptions{
		Exclude: []model.TaskID{"serve buffet"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Workflow.Task("serve buffet"); ok {
		t.Error("excluded task selected")
	}
	if _, ok := res.Workflow.Task("serve tables"); !ok {
		t.Error("alternative to excluded task not selected")
	}
}

type errorSource struct{}

func (errorSource) FragmentsConsuming(context.Context, []model.LabelID) ([]*model.Fragment, error) {
	return nil, errors.New("network down")
}

func TestConstructIncrementalSourceError(t *testing.T) {
	s := spec.Must(lbl("a"), lbl("b"))
	_, err := ConstructIncremental(context.Background(), errorSource{}, s, IncrementalOptions{})
	if err == nil || errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want propagation of source error", err)
	}
}

func TestSliceSourceFiltering(t *testing.T) {
	frags := cateringFragments(t)
	src := SliceSource(frags)
	got, err := src.FragmentsConsuming(context.Background(), lbl("lunch prepared"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range got {
		names[f.Name] = true
	}
	if !names["lunch-tables"] || !names["lunch-buffet"] || len(names) != 2 {
		t.Errorf("FragmentsConsuming(lunch prepared) = %v", names)
	}
}
