// Package spec defines open-workflow problem specifications (§2.2, §3.1).
//
// In general a specification is a predicate over a workflow's inset and
// outset: S ∈ P(Labels) × P(Labels) → Boolean. The construction algorithm
// of the paper works with the concrete form
//
//	W.in ⊆ ι  ∧  W.out = ω
//
// where ι are the triggering-condition labels and ω the goal labels. Spec
// captures that form; Constraints layers the paper's §5.1 "richer
// specification" extensions (bounds on the workflow graph) on top.
package spec

import (
	"fmt"
	"sort"
	"strings"

	"openwf/internal/model"
)

// Spec is the concrete specification form used by workflow construction:
// triggering conditions ι and goal ω.
type Spec struct {
	// Triggers is ι: the labels that hold when the problem is posed.
	// The constructed workflow's inset must be a subset of ι.
	Triggers []model.LabelID
	// Goals is ω: the labels that must hold once the workflow has run.
	// The constructed workflow's outset must equal ω.
	Goals []model.LabelID
}

// New builds a specification and validates it: at least one trigger and
// one goal, no duplicates, and no label that is both trigger and goal
// (such a specification is satisfied by the empty workflow, which the
// model excludes).
func New(triggers, goals []model.LabelID) (Spec, error) {
	s := Spec{
		Triggers: append([]model.LabelID(nil), triggers...),
		Goals:    append([]model.LabelID(nil), goals...),
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	sort.Slice(s.Triggers, func(i, j int) bool { return s.Triggers[i] < s.Triggers[j] })
	sort.Slice(s.Goals, func(i, j int) bool { return s.Goals[i] < s.Goals[j] })
	return s, nil
}

// Must is New that panics on error, for statically known specifications.
func Must(triggers, goals []model.LabelID) Spec {
	s, err := New(triggers, goals)
	if err != nil {
		panic(fmt.Sprintf("openwf: invalid spec: %v", err))
	}
	return s
}

// Validate checks structural validity of the specification.
func (s Spec) Validate() error {
	if len(s.Triggers) == 0 {
		return fmt.Errorf("spec: no triggering conditions")
	}
	if len(s.Goals) == 0 {
		return fmt.Errorf("spec: no goals")
	}
	seen := make(map[model.LabelID]struct{}, len(s.Triggers))
	for _, t := range s.Triggers {
		if _, dup := seen[t]; dup {
			return fmt.Errorf("spec: duplicate trigger %q", t)
		}
		seen[t] = struct{}{}
	}
	goalSeen := make(map[model.LabelID]struct{}, len(s.Goals))
	for _, g := range s.Goals {
		if _, dup := goalSeen[g]; dup {
			return fmt.Errorf("spec: duplicate goal %q", g)
		}
		goalSeen[g] = struct{}{}
		if _, both := seen[g]; both {
			return fmt.Errorf("spec: label %q is both trigger and goal", g)
		}
	}
	return nil
}

// TriggerSet returns ι as a set.
func (s Spec) TriggerSet() map[model.LabelID]struct{} {
	set := make(map[model.LabelID]struct{}, len(s.Triggers))
	for _, t := range s.Triggers {
		set[t] = struct{}{}
	}
	return set
}

// GoalSet returns ω as a set.
func (s Spec) GoalSet() map[model.LabelID]struct{} {
	set := make(map[model.LabelID]struct{}, len(s.Goals))
	for _, g := range s.Goals {
		set[g] = struct{}{}
	}
	return set
}

// Evaluate applies the predicate S(in, out) = in ⊆ ι ∧ out = ω to an
// inset/outset pair.
func (s Spec) Evaluate(in, out []model.LabelID) bool {
	triggers := s.TriggerSet()
	for _, l := range in {
		if _, ok := triggers[l]; !ok {
			return false
		}
	}
	if len(out) != len(s.Goals) {
		return false
	}
	goals := s.GoalSet()
	for _, l := range out {
		if _, ok := goals[l]; !ok {
			return false
		}
	}
	return true
}

// Satisfies reports whether workflow w satisfies the specification.
func (s Spec) Satisfies(w *model.Workflow) bool {
	return s.Evaluate(w.In(), w.Out())
}

// String renders the spec as "ι={a,b} ω={c}".
func (s Spec) String() string {
	return fmt.Sprintf("ι={%s} ω={%s}", joinLabels(s.Triggers), joinLabels(s.Goals))
}

func joinLabels(ls []model.LabelID) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = string(l)
	}
	return strings.Join(parts, ",")
}

// Constraints extends a base specification with the richer forms sketched
// in §5.1: bounds on the workflow graph and task exclusions. The
// construction engine enforces them after the base construction.
type Constraints struct {
	// MaxTasks, when positive, bounds the number of tasks in the
	// constructed workflow ("constraints on path length").
	MaxTasks int
	// ExcludeTasks lists tasks that must not appear in the workflow
	// ("task preferences"). Construction treats them as infeasible.
	ExcludeTasks []model.TaskID
}

// Check reports whether workflow w meets the constraints.
func (c Constraints) Check(w *model.Workflow) error {
	if c.MaxTasks > 0 && w.NumTasks() > c.MaxTasks {
		return fmt.Errorf("constraints: workflow has %d tasks, limit %d", w.NumTasks(), c.MaxTasks)
	}
	for _, id := range c.ExcludeTasks {
		if _, ok := w.Task(id); ok {
			return fmt.Errorf("constraints: excluded task %q present in workflow", id)
		}
	}
	return nil
}
