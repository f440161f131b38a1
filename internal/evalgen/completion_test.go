package evalgen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/spec"
)

// TestGoalsImplyEveryTaskRan checks the rule Execute's completion rests
// on: once every goal has arrived, every task of the workflow has run. That
// holds when every task of a constructed workflow lies on a path back to a
// goal, when every input has exactly one producer or is a trigger, and when
// a disjunctive task keeps one input — then a goal's arrival means its
// producer ran, which means every input of that producer arrived, and so
// on back to the triggers. The shapes are evalgen supergraphs with labels
// given a second or third producer (a disjunctive label), conjunctive
// producers among them, and specifications of one or two goals, some of
// them a goal and its successor's.
func TestGoalsImplyEveryTaskRan(t *testing.T) {
	built, alternates := 0, 0
	for _, n := range []int{12, 30} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			sc, err := Generate(n, rng)
			if err != nil {
				t.Fatal(err)
			}
			frags, err := sc.Fragments()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 3 {
				alt := model.Task{ID: model.TaskID(fmt.Sprintf("A%03d", i)), Mode: model.Disjunctive,
					Inputs: []model.LabelID{outLabel(rng.Intn(n)), outLabel(rng.Intn(n))}, Outputs: []model.LabelID{outLabel(i)}}
				if i%2 == 0 {
					alt.Mode = model.Conjunctive
				}
				if alt.Inputs[0] == alt.Inputs[1] {
					alt.Inputs = alt.Inputs[:1]
				}
				f, err := model.SingleTaskFragment(alt)
				if err != nil {
					continue // it consumed its own output
				}
				frags = append(frags, f)
			}
			g, err := core.CollectAll(frags)
			if err != nil {
				t.Fatal(err)
			}
			for length := 1; length <= 5; length++ {
				s, ok := sc.SamplePath(length, rng)
				if !ok {
					continue
				}
				goal := s.Goals[0]
				var next int
				if _, err := fmt.Sscanf(string(goal), "o%03d", &next); err != nil {
					t.Fatal(err)
				}
				for _, goals := range [][]model.LabelID{
					{goal},
					{goal, outLabel(rng.Intn(n))},
					{goal, outLabel(sc.succ[next][0])},
				} {
					sp, err := spec.New(s.Triggers, goals)
					if err != nil {
						continue
					}
					res, err := core.Construct(g, sp)
					if err != nil {
						continue // no solution, the goal-feeds-goal corner included
					}
					built++
					for _, id := range res.Workflow.TaskIDs() {
						if id[0] == 'A' {
							alternates++
							break
						}
					}
					if bad := completionRuleBroken(res.Workflow, sp); bad != "" {
						t.Errorf("n=%d seed=%d spec %v: %s\n%v", n, seed, sp, bad, res.Workflow)
					}
				}
			}
		}
	}
	t.Logf("%d workflows checked, %d of them using a label's second producer", built, alternates)
	if built < 20 || alternates == 0 {
		t.Fatalf("%d workflows constructed, %d using a second producer; the check saw too few shapes", built, alternates)
	}
}

// completionRuleBroken says how w breaks the rule, or "" if it keeps it.
func completionRuleBroken(w *model.Workflow, sp spec.Spec) string {
	for _, task := range w.Tasks() {
		if task.Mode == model.Disjunctive && len(task.Inputs) != 1 {
			return fmt.Sprintf("disjunctive task %s keeps %d inputs", task.ID, len(task.Inputs))
		}
		for _, in := range task.Inputs {
			_, produced := w.Producer(in)
			if trigger := slices.Contains(sp.Triggers, in); produced == trigger {
				return fmt.Sprintf("input %s of %s: produced %t, trigger %t", in, task.ID, produced, trigger)
			}
		}
	}
	onPath := make(map[model.TaskID]bool)
	labels := w.Out()
	for len(labels) > 0 {
		l := labels[len(labels)-1]
		labels = labels[:len(labels)-1]
		p, ok := w.Producer(l)
		if !ok || onPath[p] {
			continue
		}
		onPath[p] = true
		task, _ := w.Task(p)
		labels = append(labels, task.Inputs...)
	}
	for _, id := range w.TaskIDs() {
		if !onPath[id] {
			return fmt.Sprintf("task %s lies on no path back to a goal", id)
		}
	}
	return ""
}
