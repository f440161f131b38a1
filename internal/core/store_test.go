package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// TestStoreDedupAndCopyOnWrite: a snapshot keeps one fragment per name and
// rejects a nil one. (Copy-on-write extension went with Store.With; the
// name stays for the test-ID floor.)
func TestStoreDedupAndCopyOnWrite(t *testing.T) {
	frags := cateringFragments(t)
	st, err := NewStore(append(frags, frags[0])...)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumFragments() != len(frags) {
		t.Fatalf("NumFragments = %d, want %d", st.NumFragments(), len(frags))
	}
	if _, err := NewStore(nil); err == nil {
		t.Error("nil fragment accepted")
	}
}

func TestStoreFragmentsConsuming(t *testing.T) {
	st, err := NewStore(cateringFragments(t)...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.FragmentsConsuming(context.Background(), lbl("lunch prepared"))
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

// TestStoreAsKnowledgeSource: incremental construction can pull straight
// from a store snapshot.
func TestStoreAsKnowledgeSource(t *testing.T) {
	st, err := NewStore(cateringFragments(t)...)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.Must(lbl("breakfast ingredients"), lbl("breakfast served"))
	res, err := ConstructIncremental(context.Background(), st, s, IncrementalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Satisfies(res.Workflow) {
		t.Fatalf("spec unsatisfied:\n%v", res.Workflow)
	}
}

// TestWorkspaceMatchesCollectAll: a workspace construction is
// byte-identical to the classic CollectAll+Construct path over the same
// fragments.
func TestWorkspaceMatchesCollectAll(t *testing.T) {
	frags := cateringFragments(t)
	s := spec.Must(lbl("breakfast ingredients", "lunch ingredients"),
		lbl("breakfast served", "lunch served"))

	g, err := CollectAll(frags)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Construct(g, s)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStore(frags...)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := st.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ws.Construct(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Workflow.Equal(want.Workflow) {
		t.Fatalf("workspace workflow differs:\n%v\nvs\n%v", got.Workflow, want.Workflow)
	}
}

// TestWorkspaceExcludeIsUndone: per-construct exclusions must not leak
// into the workspace's next construction.
func TestWorkspaceExcludeIsUndone(t *testing.T) {
	st, err := NewStore(cateringFragments(t)...)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := st.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	s := spec.Must(lbl("lunch ingredients"), lbl("lunch served"))

	res, err := ws.Construct(s, "serve buffet")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Workflow.Task("serve buffet"); ok {
		t.Fatal("excluded task selected")
	}
	if _, ok := res.Workflow.Task("serve tables"); !ok {
		t.Fatal("alternative not selected")
	}
	// The exclusion is gone: excluding the alternative now selects the
	// previously excluded buffet path.
	res2, err := ws.Construct(s, "serve tables")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.Workflow.Task("serve buffet"); !ok {
		t.Fatalf("exclusion leaked across constructions:\n%v", res2.Workflow)
	}
	// And with no exclusions at all, construction still succeeds.
	if _, err := ws.Construct(s); err != nil {
		t.Fatal(err)
	}
}

// TestWorkspacePlaceholderIsNoTask: excluding a task no fragment defines
// leaves a placeholder node in the workspace, which is not a supergraph
// task — neither in that construction nor in any later one.
func TestWorkspacePlaceholderIsNoTask(t *testing.T) {
	st, err := NewStore(frag(t, "only", ctask("t", lbl("a"), lbl("b"))))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := st.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	s := spec.Must(lbl("a"), lbl("b"))
	for i, exclude := range [][]model.TaskID{nil, {"nobody-defines-me"}, nil} {
		res, err := ws.Construct(s, exclude...)
		if err != nil {
			t.Fatal(err)
		}
		if res.SupergraphTasks != 1 {
			t.Errorf("construction %d (exclude %v): SupergraphTasks = %d, want 1", i, exclude, res.SupergraphTasks)
		}
	}
}

func TestWorkspacePoolConstructCanceled(t *testing.T) {
	st, err := NewStore(cateringFragments(t)...)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWorkspacePool(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pool.Construct(ctx, spec.Must(lbl("lunch ingredients"), lbl("lunch served")))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConcurrentConstructSharedStore runs many goroutines constructing
// different specifications against one shared snapshot; run under -race
// this is the PR's central safety claim (CI runs go test -race ./...).
func TestConcurrentConstructSharedStore(t *testing.T) {
	st, err := NewStore(cateringFragments(t)...)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWorkspacePool(st)

	specs := []spec.Spec{
		spec.Must(lbl("breakfast ingredients"), lbl("breakfast served")),
		spec.Must(lbl("lunch ingredients"), lbl("lunch served")),
		spec.Must(lbl("doughnuts ordered"), lbl("breakfast served")),
		spec.Must(lbl("box lunches ordered"), lbl("lunch served")),
		spec.Must(lbl("breakfast ingredients", "lunch ingredients"),
			lbl("breakfast served", "lunch served")),
	}
	// Reference results constructed serially.
	want := make([]*Result, len(specs))
	for i, s := range specs {
		want[i], err = pool.Construct(context.Background(), s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (gi + it) % len(specs)
				res, err := pool.Construct(context.Background(), specs[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d spec %d: %w", gi, i, err)
					return
				}
				if !res.Workflow.Equal(want[i].Workflow) {
					errs <- fmt.Errorf("goroutine %d spec %d: workflow differs under concurrency", gi, i)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
