package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"openwf/internal/core"
	"openwf/internal/evalgen"
	"openwf/internal/model"
	"openwf/internal/spec"
	"openwf/internal/testutil"
)

// undefinedTask is excluded by some constructions although no fragment
// defines it, so MarkInfeasible leaves a placeholder node behind.
const undefinedTask model.TaskID = "nobody-defines-me"

// construction is one call of the recycling tests: a specification and
// what the call does besides collecting.
type construction struct {
	spec     spec.Spec
	exclude  []model.TaskID
	feas     taskSet // marks these tasks infeasible when non-nil
	failAt   int     // > 0: the source fails on this collection round
	canceled bool    // the context is cancelled before the call
}

// outcome is what a construction returned, comparable with ==.
type outcome struct {
	workflow                             string
	explored, tasks, rounds, fragsMerged int
	err                                  string
}

type constructFunc func(context.Context, core.KnowledgeSource, spec.Spec, core.IncrementalOptions) (*core.Result, error)

// run performs c with construct over frags.
func (c construction) run(construct constructFunc, frags core.SliceSource) outcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if c.canceled {
		cancel()
	}
	var src core.KnowledgeSource = frags
	if c.failAt > 0 {
		src = &failingSource{src: frags, failAt: c.failAt}
	}
	opts := core.IncrementalOptions{Exclude: c.exclude}
	if c.feas != nil {
		opts.Feasibility = c.feas
	}
	res, err := construct(ctx, src, c.spec, opts)
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{res.Workflow.String(), res.Explored, res.SupergraphTasks, res.CollectionRounds, res.FragmentsCollected, ""}
}

// taskSet is a FeasibilityChecker reporting its members infeasible.
type taskSet map[model.TaskID]bool

func (s taskSet) InfeasibleTasks(_ context.Context, tasks []model.TaskID) ([]model.TaskID, error) {
	var out []model.TaskID
	for _, id := range tasks {
		if s[id] {
			out = append(out, id)
		}
	}
	return out, nil
}

// failingSource answers like src until its failAt-th round, which fails.
type failingSource struct {
	src    core.SliceSource
	failAt int
	calls  int
}

func (f *failingSource) FragmentsConsuming(ctx context.Context, labels []model.LabelID) ([]*model.Fragment, error) {
	f.calls++
	if f.calls == f.failAt {
		return nil, fmt.Errorf("round %d fails", f.calls)
	}
	return f.src.FragmentsConsuming(ctx, labels)
}

// recyclingWorkload is the evalgen.Generate(100, …) scenario of the seed
// and n constructions over it. The scenario's single-task fragments come
// with a few two-task fragments that define tasks a second time under
// another name, so merges also meet tasks already present. The
// constructions take turns: a plain one, one with exclusions (one of them
// undefined), one with a feasibility checker, one whose source fails
// mid-collection and one on a cancelled context; path lengths vary from 2
// to 8 so the graphs grow and shrink between calls.
func recyclingWorkload(t testing.TB, seed int64, n int) (core.SliceSource, []construction) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc, err := evalgen.Generate(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := sc.Fragments()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a, b := rng.Intn(sc.NumTasks()), rng.Intn(sc.NumTasks())
		if a == b {
			continue
		}
		f, err := model.NewFragment(fmt.Sprintf("pair-%d-%d", a, b), sc.Task(a), sc.Task(b))
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, f)
	}
	randomTask := func() model.TaskID { return sc.Task(rng.Intn(sc.NumTasks())).ID }
	cs := make([]construction, 0, n)
	for i := 0; len(cs) < n; i++ {
		s, ok := sc.SamplePath(2+i%7, rng)
		if !ok {
			continue
		}
		c := construction{spec: s}
		switch i % 5 {
		case 1:
			c.exclude = []model.TaskID{randomTask(), undefinedTask, randomTask()}
		case 2:
			c.feas = taskSet{}
			for j := 0; j < 10; j++ {
				c.feas[randomTask()] = true
			}
		case 3:
			c.failAt = 1 + rng.Intn(3)
		case 4:
			c.canceled = true
		}
		cs = append(cs, c)
	}
	return core.SliceSource(frags), cs
}

// TestRecycledSupergraphMatchesFresh: a construction in a supergraph
// recycled from the one before returns exactly what it returns in a new
// supergraph, whatever the earlier construction left behind — exclusion
// placeholders, infeasibility marks, a failed collection round, a cancelled
// call.
func TestRecycledSupergraphMatchesFresh(t *testing.T) {
	failures, cancels := 0, 0
	for seed := int64(0); seed < 32; seed++ {
		src, cs := recyclingWorkload(t, seed, 15)
		for i, c := range cs {
			got := c.run(core.ConstructIncremental, src)
			want := c.run(core.ConstructFresh, src)
			if got != want {
				t.Fatalf("seed %d, construction %d: recycled graph returned\n%+v\nfresh graph returned\n%+v", seed, i, got, want)
			}
			switch {
			case c.canceled && got.err == context.Canceled.Error():
				cancels++
			case c.failAt > 0 && got.err != "":
				failures++
			}
		}
	}
	if failures == 0 || cancels == 0 {
		t.Fatalf("%d failed sources and %d cancelled calls seen, want some of each", failures, cancels)
	}
}

// TestConcurrentRecycledConstructions: eight goroutines constructing from
// the shared pool of recycled supergraphs get the serial results.
func TestConcurrentRecycledConstructions(t *testing.T) {
	src, cs := recyclingWorkload(t, 2009, 50)
	want := make([]outcome, len(cs))
	for i, c := range cs {
		want[i] = c.run(core.ConstructFresh, src)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cs {
				i := (k + 7*w) % len(cs)
				if got := cs[i].run(core.ConstructIncremental, src); got != want[i] {
					errs <- fmt.Errorf("worker %d, construction %d: got\n%+v\nwant\n%+v", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConstructIncrementalAllocBound pins what a warm construction of a
// path-8 specification costs over the benchmark's 100-task scenario: a
// recycled supergraph whose frontier and feasibility lists are scratch,
// and a workflow extracted into one label slab and validated and indexed
// in one pass, so 65 allocations (156 while both lists were new every
// round and the workflow was cloned task by task and checked twice; 871
// when every construction built its graph anew).
func TestConstructIncrementalAllocBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	sc, err := evalgen.Generate(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := sc.Fragments()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := sc.SamplePath(8, rng)
	if !ok {
		t.Fatal("scenario has no path of length 8")
	}
	src := core.SliceSource(frags)
	testutil.AllocBound(t, 90, func() {
		if _, err := core.ConstructIncremental(context.Background(), src, s, core.IncrementalOptions{}); err != nil {
			t.Fatal(err)
		}
	})
}
