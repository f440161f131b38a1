package model

import (
	"fmt"
	"testing"
)

// benchChainWorkflow builds a valid workflow of n tasks in a single chain:
// l0 -> t0 -> l1 -> t1 -> ... -> ln.
func benchChainWorkflow(b *testing.B, n int) *Workflow {
	b.Helper()
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{
			ID:      TaskID(fmt.Sprintf("t%04d", i)),
			Mode:    Conjunctive,
			Inputs:  []LabelID{LabelID(fmt.Sprintf("l%04d", i))},
			Outputs: []LabelID{LabelID(fmt.Sprintf("l%04d", i+1))},
		}
	}
	w, err := NewWorkflowOfTasks(ts)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTopoOrder measures the per-call cost of TopoOrder. With the
// cached indexes this is a slice copy; before PR 2 it rebuilt the
// producer index and recomputed every depth per call.
func BenchmarkTopoOrder(b *testing.B) {
	for _, n := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			w := benchChainWorkflow(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := w.TopoOrder(); len(got) != n {
					b.Fatalf("len = %d", len(got))
				}
			}
		})
	}
}

// BenchmarkProducerConsumers measures the label-routing lookups that
// plan-segment derivation performs for every task input and output.
// Cached: O(1) map hit plus a copy of the consumer slice. Before PR 2
// each call scanned every task in the workflow.
func BenchmarkProducerConsumers(b *testing.B) {
	const n = 500
	w := benchChainWorkflow(b, n)
	mid := LabelID(fmt.Sprintf("l%04d", n/2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.Producer(mid); !ok {
			b.Fatal("no producer")
		}
		if got := w.Consumers(mid); len(got) != 1 {
			b.Fatalf("consumers = %v", got)
		}
	}
}
