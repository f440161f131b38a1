package core_test

import (
	"context"
	"fmt"
	"testing"

	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/spec"
)

// layeredFragments builds a deterministic layered supergraph: width
// parallel chains of the given depth, a conjunctive join consuming the
// last layer, plus distractor branches hanging off every layer that a
// construction toward the goal never needs. The result exercises both
// disjunctive (labels) and conjunctive (join) coloring.
func layeredFragments(b *testing.B, depth, width int) ([]*model.Fragment, spec.Spec) {
	b.Helper()
	lab := func(layer, w int) model.LabelID {
		return model.LabelID(fmt.Sprintf("l%d.%d", layer, w))
	}
	var tasks []model.Task
	for layer := 0; layer < depth; layer++ {
		for w := 0; w < width; w++ {
			tasks = append(tasks, model.Task{
				ID:      model.TaskID(fmt.Sprintf("t%d.%d", layer, w)),
				Mode:    model.Conjunctive,
				Inputs:  []model.LabelID{lab(layer, w)},
				Outputs: []model.LabelID{lab(layer+1, w)},
			})
			// Distractor consuming the same input, producing a dead end.
			tasks = append(tasks, model.Task{
				ID:      model.TaskID(fmt.Sprintf("d%d.%d", layer, w)),
				Mode:    model.Conjunctive,
				Inputs:  []model.LabelID{lab(layer, w)},
				Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("dead%d.%d", layer, w))},
			})
		}
	}
	join := model.Task{ID: "join", Mode: model.Conjunctive, Outputs: []model.LabelID{"goal"}}
	for w := 0; w < width; w++ {
		join.Inputs = append(join.Inputs, lab(depth, w))
	}
	tasks = append(tasks, join)

	var frags []*model.Fragment
	for i, t := range tasks {
		f, err := model.NewFragment(fmt.Sprintf("f%d", i), t)
		if err != nil {
			b.Fatal(err)
		}
		frags = append(frags, f)
	}
	var triggers []model.LabelID
	for w := 0; w < width; w++ {
		triggers = append(triggers, lab(0, w))
	}
	return frags, spec.Must(triggers, []model.LabelID{"goal"})
}

// BenchmarkRepeatedConstruct measures the steady-state cost of answering
// specifications against one long-lived supergraph — the epoch-stamped
// reset hot path. allocs/op here is the construction algorithm's
// steady-state allocation floor.
func BenchmarkRepeatedConstruct(b *testing.B) {
	for _, size := range []struct{ depth, width int }{{8, 4}, {16, 16}, {32, 32}} {
		b.Run(fmt.Sprintf("depth=%d/width=%d", size.depth, size.width), func(b *testing.B) {
			frags, s := layeredFragments(b, size.depth, size.width)
			g := core.NewSupergraph()
			for _, f := range frags {
				if _, err := g.AddFragment(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Construct(g, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResetColoring shows the reset is O(1) in graph size: ns/op must
// stay flat as the supergraph grows by two orders of magnitude.
func BenchmarkResetColoring(b *testing.B) {
	for _, size := range []struct{ depth, width int }{{4, 4}, {32, 32}, {64, 64}} {
		b.Run(fmt.Sprintf("tasks=%d", size.depth*size.width*2+1), func(b *testing.B) {
			frags, s := layeredFragments(b, size.depth, size.width)
			g := core.NewSupergraph()
			for _, f := range frags {
				if _, err := g.AddFragment(f); err != nil {
					b.Fatal(err)
				}
			}
			// Populate coloring so the reset has state to invalidate.
			if _, err := core.Construct(g, s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.ResetColoring()
			}
		})
	}
}

// BenchmarkConstructIncremental measures on-demand collection against an
// in-memory source, the other construction entry point.
func BenchmarkConstructIncremental(b *testing.B) {
	frags, s := layeredFragments(b, 16, 8)
	src := core.SliceSource(frags)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ConstructIncremental(context.Background(), src, s, core.IncrementalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
