package model

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomDAGTasks builds a random layered task set that is a valid workflow
// by construction: tasks in layer i consume labels from earlier layers and
// produce fresh labels, so no label has two producers and no cycles exist.
func randomDAGTasks(rng *rand.Rand) []Task {
	var ts []Task
	layers := 1 + rng.Intn(4)
	// Layer 0: free source labels.
	available := []LabelID{}
	for i := 0; i < 1+rng.Intn(3); i++ {
		available = append(available, LabelID(fmt.Sprintf("src%d", i)))
	}
	next := 0
	for l := 0; l < layers; l++ {
		tasks := 1 + rng.Intn(3)
		var produced []LabelID
		for t := 0; t < tasks; t++ {
			nIn := 1 + rng.Intn(min(2, len(available)))
			perm := rng.Perm(len(available))
			ins := make([]LabelID, 0, nIn)
			for _, idx := range perm[:nIn] {
				ins = append(ins, available[idx])
			}
			nOut := 1 + rng.Intn(2)
			outs := make([]LabelID, 0, nOut)
			for o := 0; o < nOut; o++ {
				outs = append(outs, LabelID(fmt.Sprintf("l%d", next)))
				next++
			}
			mode := Conjunctive
			if rng.Intn(2) == 0 {
				mode = Disjunctive
			}
			id := TaskID(fmt.Sprintf("t%d_%d", l, t))
			ts = append(ts, Task{ID: id, Mode: mode, Inputs: ins, Outputs: outs})
			produced = append(produced, outs...)
		}
		available = append(available, produced...)
	}
	return ts
}

// TestPropRandomDAGIsValidWorkflow: the generator above always yields a
// valid workflow.
func TestPropRandomDAGIsValidWorkflow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return validate(randomDAGTasks(rng)...) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropCloneEqualsOriginal: a workflow's Tasks round-trip to an Equal
// workflow with the same sources and sinks.
func TestPropCloneEqualsOriginal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := NewWorkflowOfTasks(randomDAGTasks(rng))
		if err != nil {
			return false
		}
		c, err := NewWorkflowOfTasks(w.Tasks())
		if err != nil {
			return false
		}
		return equal(w, c) && equal(c, w) &&
			slices.Equal(w.in, c.in) && slices.Equal(w.Out(), c.Out())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropTopoOrderRespectsEdges: in a workflow's topological order, every
// producer precedes all consumers of each of its outputs.
func TestPropTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, err := NewWorkflowOfTasks(randomDAGTasks(rng))
		if err != nil {
			return false
		}
		pos := make(map[TaskID]int)
		for i, id := range w.TopoOrder() {
			pos[id] = i
		}
		for _, tk := range w.Tasks() {
			for _, out := range tk.Outputs {
				for c := range w.ConsumersSeq(out) {
					if pos[c] <= pos[tk.ID] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropComposeAssociativeOnChains: composing a chain of single-task
// workflows in either association order yields the same workflow.
func TestPropComposeAssociativeOnChains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		ws := make([]*Workflow, 0, n)
		for i := 0; i < n; i++ {
			w, err := NewWorkflowOfTasks([]Task{{
				ID:      TaskID(fmt.Sprintf("t%d", i)),
				Mode:    Conjunctive,
				Inputs:  []LabelID{LabelID(fmt.Sprintf("c%d", i))},
				Outputs: []LabelID{LabelID(fmt.Sprintf("c%d", i+1))},
			}})
			if err != nil {
				return false
			}
			ws = append(ws, w)
		}
		// Left fold.
		left := ws[0]
		for _, w := range ws[1:] {
			var err error
			left, err = compose(left, w)
			if err != nil {
				return false
			}
		}
		// Right fold.
		right := ws[n-1]
		for i := n - 2; i >= 0; i-- {
			var err error
			right, err = compose(ws[i], right)
			if err != nil {
				return false
			}
		}
		return equal(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
