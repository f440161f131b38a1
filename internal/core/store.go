package core

import (
	"context"
	"fmt"
	"sync"

	"openwf/internal/model"
	"openwf/internal/spec"
)

// Store is an immutable, shareable snapshot of collected knowhow: a set
// of workflow fragments plus a consumer index for frontier queries. Once
// built, a Store never changes — any number of goroutines may construct
// workflows against it concurrently through Workspaces.
type Store struct {
	frags []*model.Fragment
	// consumers indexes fragments by consumed label, the store-local
	// equivalent of the community's Fragment Managers answering a
	// FragmentsConsuming query.
	consumers map[model.LabelID][]*model.Fragment
}

// NewStore builds a store snapshot from the given fragments. Fragments
// are deduplicated by name (the same rule the supergraph merge applies);
// the fragments are retained by reference and must not be mutated.
func NewStore(frags ...*model.Fragment) (*Store, error) {
	s := &Store{consumers: make(map[model.LabelID][]*model.Fragment)}
	names := make(map[string]struct{}, len(frags))
	for _, f := range frags {
		if f == nil {
			return nil, fmt.Errorf("core: nil fragment in store")
		}
		if _, dup := names[f.Name]; dup {
			continue
		}
		names[f.Name] = struct{}{}
		s.frags = append(s.frags, f)
		seen := make(map[model.LabelID]struct{})
		for _, t := range f.Tasks {
			for _, in := range t.Inputs {
				if _, done := seen[in]; done {
					continue
				}
				seen[in] = struct{}{}
				s.consumers[in] = append(s.consumers[in], f)
			}
		}
	}
	return s, nil
}

var _ KnowledgeSource = (*Store)(nil)

// FragmentsConsuming implements KnowledgeSource over the snapshot's
// consumer index, so a Store can stand in for the community during
// incremental construction.
func (s *Store) FragmentsConsuming(_ context.Context, labels []model.LabelID) ([]*model.Fragment, error) {
	var out []*model.Fragment
	seen := make(map[string]struct{})
	for _, l := range labels {
		for _, f := range s.consumers[l] {
			if _, dup := seen[f.Name]; dup {
				continue
			}
			seen[f.Name] = struct{}{}
			out = append(out, f)
		}
	}
	return out, nil
}

// Workspace is one construction session's private scratch: a supergraph
// merged from a store snapshot plus its coloring state. The shared Store
// is never written; all mutable state (colors, distances, worklists,
// infeasibility marks) lives here, owned by exactly one goroutine at a
// time. A WorkspacePool hands them out to construct many specifications
// in parallel against one snapshot.
type Workspace struct {
	graph *Supergraph
	// marks are the per-construct infeasibility marks to undo before
	// the workspace is reused (the store's knowledge is shared; one
	// request's exclusions must not leak into the next).
	marks []model.TaskID
}

// newWorkspace merges the snapshot into a fresh supergraph. The merge is
// paid once per workspace; afterwards every construction, its reset
// included, walks only the explored region.
func (s *Store) newWorkspace() (*Workspace, error) {
	g, err := CollectAll(s.frags)
	if err != nil {
		return nil, fmt.Errorf("core: merging store fragment: %w", err)
	}
	return &Workspace{graph: g}, nil
}

// construct runs Algorithm 1 in this workspace: exclude marks the given
// tasks infeasible for this construction only (specification-level
// exclusions, §5.1); the marks are undone before returning so the next
// checkout sees the full knowledge again.
func (w *Workspace) construct(sp spec.Spec, exclude ...model.TaskID) (*Result, error) {
	for _, t := range exclude {
		if !w.graph.Infeasible(t) {
			w.graph.MarkInfeasible(t)
			w.marks = append(w.marks, t)
		}
	}
	res, err := Construct(w.graph, sp)
	if len(w.marks) > 0 {
		for _, t := range w.marks {
			w.graph.MarkFeasible(t)
		}
		w.marks = w.marks[:0]
	}
	return res, err
}

// WorkspacePool shares one immutable store snapshot among N concurrent
// construction sessions: each Construct takes a workspace (a pooled one, or
// a fresh merge on first use under load), runs the coloring algorithm in
// it, and puts it back. Pooled workspaces keep their merged supergraph, so
// a warm construction pays for the region it explores, not for the merge.
// Safe for concurrent use.
type WorkspacePool struct {
	store *Store
	pool  sync.Pool
}

// NewWorkspacePool returns a pool of workspaces over the snapshot.
func NewWorkspacePool(store *Store) *WorkspacePool {
	return &WorkspacePool{store: store}
}

// Construct constructs a workflow satisfying sp in a pooled workspace. The
// context is consulted before the (pure CPU, microsecond-scale)
// construction begins; many Construct calls may run concurrently against
// the same pool.
func (p *WorkspacePool) Construct(ctx context.Context, sp spec.Spec, exclude ...model.TaskID) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ws, ok := p.pool.Get().(*Workspace)
	if !ok {
		var err error
		if ws, err = p.store.newWorkspace(); err != nil {
			return nil, err
		}
	}
	res, err := ws.construct(sp, exclude...)
	p.pool.Put(ws)
	return res, err
}
