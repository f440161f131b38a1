package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// randomSupergraphFragments generates a messy knowledge base: random tasks
// over a bounded label universe, allowing multiple producers per label,
// cycles, and disconnected junk — exactly what a real community's combined
// knowledge looks like (Figure 1 is such a graph).
func randomSupergraphFragments(rng *rand.Rand) []*model.Fragment {
	nLabels := 6 + rng.Intn(14)
	labelsU := make([]model.LabelID, nLabels)
	for i := range labelsU {
		labelsU[i] = model.LabelID(fmt.Sprintf("l%d", i))
	}
	nTasks := 5 + rng.Intn(20)
	var frags []*model.Fragment
	for i := 0; i < nTasks; i++ {
		perm := rng.Perm(nLabels)
		nIn := 1 + rng.Intn(3)
		nOut := 1 + rng.Intn(2)
		if nIn+nOut > nLabels {
			nIn, nOut = 1, 1
		}
		ins := make([]model.LabelID, 0, nIn)
		for _, idx := range perm[:nIn] {
			ins = append(ins, labelsU[idx])
		}
		outs := make([]model.LabelID, 0, nOut)
		for _, idx := range perm[nIn : nIn+nOut] {
			outs = append(outs, labelsU[idx])
		}
		mode := model.Conjunctive
		if rng.Intn(2) == 0 {
			mode = model.Disjunctive
		}
		f, err := model.NewFragment(fmt.Sprintf("f%d", i), model.Task{
			ID: model.TaskID(fmt.Sprintf("t%d", i)), Mode: mode, Inputs: ins, Outputs: outs,
		})
		if err != nil {
			panic(err)
		}
		frags = append(frags, f)
	}
	return frags
}

// reachableOracle independently computes the set of derivable labels by
// naive fixpoint iteration — a second implementation of reachability
// against which exploration is cross-checked.
func reachableOracle(frags []*model.Fragment, triggers []model.LabelID) map[model.LabelID]bool {
	reach := make(map[model.LabelID]bool)
	for _, l := range triggers {
		reach[l] = true
	}
	done := make(map[model.TaskID]bool)
	for {
		progress := false
		for _, f := range frags {
			for _, tk := range f.Tasks {
				if done[tk.ID] {
					continue
				}
				fire := false
				if tk.Mode == model.Disjunctive {
					for _, in := range tk.Inputs {
						if reach[in] {
							fire = true
							break
						}
					}
				} else {
					fire = true
					for _, in := range tk.Inputs {
						if !reach[in] {
							fire = false
							break
						}
					}
				}
				if fire {
					done[tk.ID] = true
					progress = true
					for _, out := range tk.Outputs {
						reach[out] = true
					}
				}
			}
		}
		if !progress {
			return reach
		}
	}
}

// TestPropConstructMatchesOracle: Construct succeeds exactly when the goal
// is derivable per the independent oracle, and on success the result is a
// valid workflow satisfying the specification.
func TestPropConstructMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frags := randomSupergraphFragments(rng)
		g, err := CollectAll(frags)
		if err != nil {
			return false
		}
		trigger := model.LabelID(fmt.Sprintf("l%d", rng.Intn(3)))
		goal := model.LabelID(fmt.Sprintf("l%d", 3+rng.Intn(3)))
		if trigger == goal {
			return true
		}
		s, err := spec.New([]model.LabelID{trigger}, []model.LabelID{goal})
		if err != nil {
			return true
		}
		oracle := reachableOracle(frags, s.Triggers)

		res, err := Construct(g, s)
		if !oracle[goal] {
			return err != nil
		}
		if err != nil {
			// Reachable per oracle but construction failed: only
			// acceptable in the goal-is-interior corner (W.out ≠ ω
			// cannot hold); detect by checking the error message is
			// the outset mismatch.
			return false
		}
		w := res.Workflow
		if _, err := model.NewWorkflowOfTasks(w.Tasks()); err != nil {
			return false
		}
		return s.Satisfies(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropWorkflowTasksComeFromKnowledge: every task in a constructed
// workflow appears in some collected fragment with compatible mode; inputs
// and outputs of selected tasks are subsets of the fragment task's.
func TestPropWorkflowTasksComeFromKnowledge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frags := randomSupergraphFragments(rng)
		byID := make(map[model.TaskID]model.Task)
		for _, fr := range frags {
			for _, tk := range fr.Tasks {
				byID[tk.ID] = tk
			}
		}
		g, err := CollectAll(frags)
		if err != nil {
			return false
		}
		trigger := model.LabelID(fmt.Sprintf("l%d", rng.Intn(3)))
		goal := model.LabelID(fmt.Sprintf("l%d", 3+rng.Intn(3)))
		s, err := spec.New([]model.LabelID{trigger}, []model.LabelID{goal})
		if err != nil {
			return true
		}
		res, err := Construct(g, s)
		if err != nil {
			return true
		}
		for _, tk := range res.Workflow.Tasks() {
			orig, ok := byID[tk.ID]
			if !ok || orig.Mode != tk.Mode {
				return false
			}
			for _, in := range tk.Inputs {
				if !slices.Contains(orig.Inputs, in) {
					return false
				}
			}
			for _, out := range tk.Outputs {
				if !slices.Contains(orig.Outputs, out) {
					return false
				}
			}
			// Conjunctive tasks keep all inputs; disjunctive keep 1.
			if tk.Mode == model.Conjunctive && len(tk.Inputs) != len(orig.Inputs) {
				return false
			}
			if tk.Mode == model.Disjunctive && len(tk.Inputs) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropIncrementalAgreesWithFull: incremental construction succeeds on
// exactly the same instances as full-collection construction.
func TestPropIncrementalAgreesWithFull(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frags := randomSupergraphFragments(rng)
		trigger := model.LabelID(fmt.Sprintf("l%d", rng.Intn(3)))
		goal := model.LabelID(fmt.Sprintf("l%d", 3+rng.Intn(3)))
		s, err := spec.New([]model.LabelID{trigger}, []model.LabelID{goal})
		if err != nil {
			return true
		}
		g, err := CollectAll(frags)
		if err != nil {
			return false
		}
		_, fullErr := Construct(g, s)
		_, incErr := ConstructIncremental(context.Background(), SliceSource(frags), s, IncrementalOptions{})
		return (fullErr == nil) == (incErr == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropExploredBoundsSelection: the constructed workflow never contains
// more tasks than were explored, and distances never exceed 2× the task
// count (each task step adds label+task distance 2).
func TestPropExploredBoundsSelection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frags := randomSupergraphFragments(rng)
		g, err := CollectAll(frags)
		if err != nil {
			return false
		}
		trigger := model.LabelID(fmt.Sprintf("l%d", rng.Intn(3)))
		goal := model.LabelID(fmt.Sprintf("l%d", 3+rng.Intn(3)))
		s, err := spec.New([]model.LabelID{trigger}, []model.LabelID{goal})
		if err != nil {
			return true
		}
		res, err := Construct(g, s)
		if err != nil {
			return true
		}
		if res.Workflow.NumTasks() > res.Explored {
			return false
		}
		if n := g.labels[goal]; n == nil || n.distance > 2*g.NumTasks() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
