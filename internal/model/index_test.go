package model

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"openwf/internal/testutil"
)

// graph is a set of tasks by ID that need not be a workflow: it may hold
// cycles and labels with several producers.
type graph map[TaskID]Task

// tasks lists g's tasks in ID order.
func (g graph) tasks() []Task {
	ts := make([]Task, 0, len(g))
	for _, id := range slices.Sorted(maps.Keys(g)) {
		ts = append(ts, g[id])
	}
	return ts
}

// oracleValidate is Graph.Validate as it was before validation and indexing
// became one pass: a producer check, then a colour-marking DFS over the
// task-to-task successor relation.
func oracleValidate(g graph) error {
	if len(g) == 0 {
		return fmt.Errorf("empty graph is not a workflow")
	}
	producer := make(map[LabelID]TaskID, len(g))
	for id, t := range g {
		for _, out := range t.Outputs {
			if _, dup := producer[out]; dup {
				return fmt.Errorf("label %q has several producers", out)
			}
			producer[out] = id
		}
	}
	const (
		white = iota
		gray
		black
	)
	color := make(map[TaskID]int, len(g))
	consumersOf := make(map[LabelID][]TaskID)
	for id, t := range g {
		for _, in := range t.Inputs {
			consumersOf[in] = append(consumersOf[in], id)
		}
	}
	var visit func(id TaskID) bool
	visit = func(id TaskID) bool {
		color[id] = gray
		for _, out := range g[id].Outputs {
			for _, succ := range consumersOf[out] {
				switch color[succ] {
				case gray:
					return false
				case white:
					if !visit(succ) {
						return false
					}
				}
			}
		}
		color[id] = black
		return true
	}
	for id := range g {
		if color[id] == white && !visit(id) {
			return fmt.Errorf("graph contains a cycle")
		}
	}
	return nil
}

// oracleIndexes is the old buildIndexes over a graph oracleValidate
// accepted.
func oracleIndexes(g graph) (producerOf map[LabelID]TaskID, consumersOf map[LabelID][]TaskID, topo []TaskID) {
	producerOf = make(map[LabelID]TaskID)
	consumersOf = make(map[LabelID][]TaskID)
	for id, t := range g {
		for _, out := range t.Outputs {
			producerOf[out] = id
		}
		for _, in := range t.Inputs {
			consumersOf[in] = append(consumersOf[in], id)
		}
	}
	for _, c := range consumersOf {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	depths := make(map[TaskID]int)
	var compute func(id TaskID) int
	compute = func(id TaskID) int {
		if d, ok := depths[id]; ok {
			return d
		}
		depths[id] = 0
		d := 0
		for _, in := range g[id].Inputs {
			if p, ok := producerOf[in]; ok && p != id {
				d = max(d, compute(p)+1)
			}
		}
		depths[id] = d
		return d
	}
	topo = slices.Sorted(maps.Keys(g))
	for _, id := range topo {
		compute(id)
	}
	sort.SliceStable(topo, func(i, j int) bool {
		if depths[topo[i]] != depths[topo[j]] {
			return depths[topo[i]] < depths[topo[j]]
		}
		return topo[i] < topo[j]
	})
	return producerOf, consumersOf, topo
}

// oracleSources is Graph.Sources as it was: the labels with no producer,
// sorted. For a valid workflow this is the inset W.in.
func oracleSources(g graph) []LabelID {
	produced := make(map[LabelID]struct{})
	for _, t := range g {
		for _, out := range t.Outputs {
			produced[out] = struct{}{}
		}
	}
	set := make(map[LabelID]struct{})
	for _, t := range g {
		for _, in := range t.Inputs {
			if _, ok := produced[in]; !ok {
				set[in] = struct{}{}
			}
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// oracleSinks is Graph.Sinks as it was: the labels with no consumer,
// sorted. For a valid workflow this is the outset W.out.
func oracleSinks(g graph) []LabelID {
	consumed := make(map[LabelID]struct{})
	for _, t := range g {
		for _, in := range t.Inputs {
			consumed[in] = struct{}{}
		}
	}
	set := make(map[LabelID]struct{})
	for _, t := range g {
		for _, out := range t.Outputs {
			if _, ok := consumed[out]; !ok {
				set[out] = struct{}{}
			}
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// verdict names what a validation error is about; the label a two-producer
// error names depends on map order, in the oracle as in the pass.
func verdict(err error) string {
	switch {
	case err == nil:
		return "valid"
	case strings.Contains(err.Error(), "empty graph"):
		return "empty"
	case strings.Contains(err.Error(), "producers"):
		return "producers"
	case strings.Contains(err.Error(), "cycle"):
		return "cycle"
	}
	return err.Error()
}

// randomGraph draws a graph of one of five shapes: an acyclic one whose
// edges run from lower- to higher-numbered labels, each label produced at
// most once; that graph with a 2- or a 3-cycle through labels added; that
// graph with a second producer of one of its labels; or the empty graph.
func randomGraph(rng *rand.Rand, shape int) graph {
	g := make(graph)
	add := func(tk Task) { g[tk.ID] = tk }
	if shape == 4 {
		return g
	}
	nl := 4 + rng.Intn(12)
	lab := func(i int) LabelID { return LabelID(fmt.Sprintf("l%02d", i)) }
	produced := make(map[int]bool)
	for k := 0; k < 1+rng.Intn(10); k++ {
		cut := 1 + rng.Intn(nl-1)
		var ins, outs []LabelID
		for i := 0; i < cut; i++ {
			if rng.Intn(3) == 0 {
				ins = append(ins, lab(i))
			}
		}
		for i := cut; i < nl; i++ {
			if !produced[i] && rng.Intn(3) == 0 {
				produced[i] = true
				outs = append(outs, lab(i))
			}
		}
		if len(ins) == 0 {
			ins = []LabelID{lab(rng.Intn(cut))}
		}
		if len(outs) == 0 {
			continue
		}
		mode := Conjunctive
		if rng.Intn(2) == 0 {
			mode = Disjunctive
		}
		add(task(TaskID(fmt.Sprintf("t%02d", k)), mode, ins, outs))
	}
	if len(g) == 0 {
		add(task("t00", Conjunctive, labels("l00"), labels("l01")))
		produced[1] = true
	}
	switch shape {
	case 1, 2: // a cycle of shape+1 tasks through fresh labels, fed from l00
		n := shape + 1
		for i := 0; i < n; i++ {
			ins := []LabelID{LabelID(fmt.Sprintf("c%d", i))}
			if i == 0 {
				ins = append(ins, "l00")
			}
			add(task(TaskID(fmt.Sprintf("cyc%d", i)), Conjunctive, ins,
				[]LabelID{LabelID(fmt.Sprintf("c%d", (i+1)%n))}))
		}
	case 3: // a second producer of an already produced label
		var ls []int
		for i := range produced {
			ls = append(ls, i)
		}
		slices.Sort(ls)
		l := ls[rng.Intn(len(ls))]
		add(task("dup", Conjunctive, []LabelID{LabelID(fmt.Sprintf("x%d", l))}, []LabelID{lab(l)}))
	}
	return g
}

// TestIndexMatchesOracle: the one pass that validates and indexes a
// workflow accepts and rejects exactly the graphs the old separate passes
// did, and on every accepted graph serves the same producer, consumers,
// topological order, sources and sinks, and the tasks — listed, found by
// ID, rendered — in ID order.
func TestIndexMatchesOracle(t *testing.T) {
	counts := make(map[string]int)
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, int(seed%5))
		w, err := NewWorkflowOfTasks(g.tasks())
		want, got := verdict(oracleValidate(g)), verdict(err)
		counts[want]++
		if got != want {
			t.Fatalf("seed %d: NewWorkflowOfTasks says %s (%v), oracle %s\n%v", seed, got, err, want, g.tasks())
		}
		if err != nil {
			continue
		}
		producerOf, consumersOf, topo := oracleIndexes(g)
		for _, tk := range g {
			for _, l := range append(slices.Clone(tk.Inputs), tk.Outputs...) {
				p, ok := w.Producer(l)
				if wp, wok := producerOf[l]; p != wp || ok != wok {
					t.Fatalf("seed %d: Producer(%s) = %q, %v; oracle %q, %v", seed, l, p, ok, wp, wok)
				}
				if got := slices.Collect(w.ConsumersSeq(l)); !slices.Equal(got, consumersOf[l]) {
					t.Fatalf("seed %d: ConsumersSeq(%s) = %v; oracle %v", seed, l, got, consumersOf[l])
				}
			}
		}
		if got := w.TopoOrder(); !reflect.DeepEqual(got, topo) {
			t.Fatalf("seed %d: TopoOrder = %v; oracle %v", seed, got, topo)
		}
		if got, want := w.TaskIDs(), slices.Sorted(maps.Keys(g)); !slices.Equal(got, want) {
			t.Fatalf("seed %d: TaskIDs = %v; want %v", seed, got, want)
		}
		ts := g.tasks()
		if got := w.Tasks(); !reflect.DeepEqual(got, ts) {
			t.Fatalf("seed %d: Tasks = %v; want %v", seed, got, ts)
		}
		lines := make([]string, len(ts))
		for i, tk := range ts {
			lines[i] = tk.String()
			for _, get := range []func(TaskID) (Task, bool){w.Task, w.TaskView} {
				if got, ok := get(tk.ID); !ok || !reflect.DeepEqual(got, tk) {
					t.Fatalf("seed %d: Task(%s) = %v, %v; want %v", seed, tk.ID, got, ok, tk)
				}
				if got, ok := get(tk.ID + "~"); ok {
					t.Fatalf("seed %d: Task(%s~) = %v, found", seed, tk.ID, got)
				}
			}
		}
		if got, want := w.String(), strings.Join(lines, "\n"); got != want {
			t.Fatalf("seed %d: String = %q; want %q", seed, got, want)
		}
		if got, want := w.Out(), oracleSinks(g); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Out = %v; oracle %v", seed, got, want)
		}
		if got, want := slices.Collect(w.InSeq()), oracleSources(g); !slices.Equal(got, want) {
			t.Fatalf("seed %d: InSeq = %v; oracle %v", seed, got, want)
		}
		if got, want := slices.Collect(w.OutSeq()), oracleSinks(g); !slices.Equal(got, want) {
			t.Fatalf("seed %d: OutSeq = %v; oracle %v", seed, got, want)
		}
	}
	for _, v := range []string{"valid", "cycle", "producers", "empty"} {
		if counts[v] < 50 {
			t.Errorf("only %d graphs drawn with verdict %s: %v", counts[v], v, counts)
		}
	}
}

// TestNewWorkflowOfTasks: the tasks become the workflow as they are —
// validated, checked for a repeated ID, and not copied.
func TestNewWorkflowOfTasks(t *testing.T) {
	ts := []Task{
		task("t1", Conjunctive, labels("a"), labels("b")),
		task("t2", Conjunctive, labels("b"), labels("c")),
	}
	w, err := NewWorkflowOfTasks(ts)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.TopoOrder(); !slices.Equal(got, []TaskID{"t1", "t2"}) {
		t.Errorf("TopoOrder = %v", got)
	}
	for _, bad := range [][]Task{
		nil,
		{task("t1", Conjunctive, labels("a"), labels("b")), task("t1", Conjunctive, labels("a"), labels("b"))},
		{task("t1", Conjunctive, nil, labels("b"))},
		{task("t1", Conjunctive, labels("a"), labels("b")), task("t2", Conjunctive, labels("b"), labels("a"))},
	} {
		if _, err := NewWorkflowOfTasks(bad); err == nil || !strings.HasPrefix(err.Error(), "invalid workflow: ") {
			t.Errorf("NewWorkflowOfTasks(%v) = %v, want an invalid-workflow error", bad, err)
		}
	}
}

// TestNewWorkflowOfTasksAllocBound pins what wrapping an 8-task chain
// costs, at most 6 allocations (4 read): the Workflow, the edge slab, the
// one slab of sources and sinks, and the order. The tasks are the caller's,
// sorted in place and not copied; the depths and the positions being
// ordered sit in a stack array. It read 14 while the tasks, producers and
// consumers sat in maps, with a map of depths.
func TestNewWorkflowOfTasksAllocBound(t *testing.T) {
	chain := make([]Task, 8)
	for i := range chain {
		chain[i] = task(TaskID(fmt.Sprintf("t%d", i)), Conjunctive,
			[]LabelID{LabelID(fmt.Sprintf("l%d", i))}, []LabelID{LabelID(fmt.Sprintf("l%d", i+1))})
	}
	testutil.AllocBound(t, 6, func() {
		if _, err := NewWorkflowOfTasks(chain); err != nil {
			t.Fatal(err)
		}
	})
}
