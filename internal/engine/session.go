package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// allocSession is one allocation session's identity: its workflow ID, its
// mint sequence number and its specification. A host carries any number of
// sessions at once; each works its way through construct → auction → award
// → (replan) in its own call of settle, whose exclusions, replan counter
// and auctions nobody else sees, so a replan in one session can never
// disturb another; the only cross-session contact points are the
// participants' schedule managers, which arbitrate slot conflicts
// first-hold-wins (see internal/schedule), and the host's index, where
// sessions share who is worth asking and nothing else.
type allocSession struct {
	wfID string
	// ordinal is the session's mint sequence number; concurrent
	// sessions use it to desynchronize their pairwise bid solicitation
	// sweeps (session k starts at member k mod N), so simultaneous
	// sessions begin at different hosts and contend minimally for the
	// same schedule windows.
	ordinal int
	spec    spec.Spec
}

// newSession mints a workflow ID and counts the session in flight. IDs are
// assigned in call order, so callers that pre-create sessions before
// launching goroutines (InitiateBatch) get reproducible IDs.
func (m *Manager) newSession(s spec.Spec) allocSession {
	m.mu.Lock()
	m.seq++
	sess := allocSession{wfID: string(m.net.Self()) + "/" + strconv.Itoa(m.seq), ordinal: m.seq, spec: s}
	m.mu.Unlock()
	m.inFlight.Add(1)
	return sess
}

// endSession ends a session newSession began.
func (m *Manager) endSession() { m.inFlight.Add(-1) }

// InFlight returns how many allocation sessions (Initiate, InitiateBatch,
// AllocateWorkflow) are running on this engine right now.
func (m *Manager) InFlight() int { return int(m.inFlight.Load()) }

// notFromMemory runs a session's work and, should it fail for want of a
// solution or of providers after routing on what members said before it
// began, once more with those memories dropped — asking everyone, as the
// first session on a host does. It is the one place a session's failure is
// checked against the age of what it was routed by (discovery.Index.Doubt).
func (m *Manager) notFromMemory(work func() (*Plan, error)) (*Plan, error) {
	mark := m.idx.Mark()
	plan, err := work()
	if (errors.Is(err, core.ErrNoSolution) || errors.Is(err, ErrAllocationFailed)) && m.idx.Doubt(mark) {
		return work()
	}
	return plan, err
}

// run drives sess to a fully allocated plan of w through settle, over the
// whole community and rotated by the session's ordinal. With w nil it
// constructs the workflow, and reconstructs without the tasks that stay
// unallocatable (§5.1); a given w is allocated as it is. Each pass of
// notFromMemory starts from the configured exclusions alone: what an
// earlier pass excluded, it excluded on doubted memory.
func (m *Manager) run(ctx context.Context, sess allocSession, w *model.Workflow) (*Plan, error) {
	res := core.Result{Workflow: w}
	var construct rebuildFunc
	if w == nil {
		construct = func(ctx context.Context, exclude []model.TaskID) (*model.Workflow, map[model.TaskID]proto.Addr, error) {
			r, err := m.build(ctx, sess.wfID, sess.spec, nil, exclude)
			if err != nil {
				return nil, nil, err
			}
			res = *r
			return r.Workflow, nil, nil
		}
	}
	return m.notFromMemory(func() (*Plan, error) {
		w, alloc, metas, replans, err := m.settle(ctx, sess.wfID, w, nil, nil, sess.ordinal, construct)
		if err != nil {
			return nil, err
		}
		return &Plan{
			WorkflowID: sess.wfID, Spec: sess.spec, Workflow: w, Initiator: m.net.Self(),
			Allocations: alloc, Metas: metas, Construction: res, Replans: replans,
		}, nil
	})
}

// build constructs the workflow for s from the knowledge of members (nil
// means the whole community; plan repair passes the survivors), never
// using the exclude tasks, checks it against the constraints and reports
// it (Observer.ConstructionDone): the one construction step of a session
// and of a repair. It is core's construction loop over the community;
// Incremental only chooses what a collection round asks for.
func (m *Manager) build(ctx context.Context, wfID string, s spec.Spec, members []proto.Addr, exclude []model.TaskID) (*core.Result, error) {
	view := &communityView{m: m, wfID: wfID, members: members}
	var src core.KnowledgeSource = view
	if !m.cfg.Incremental {
		src = &fullCollection{view: view}
	}
	opts := core.IncrementalOptions{Exclude: exclude}
	if m.cfg.Feasibility {
		opts.Feasibility = view
	}
	res, err := core.ConstructIncremental(ctx, src, s, opts)
	if err != nil {
		return nil, err
	}
	if m.cfg.Constraints.MaxTasks > 0 {
		if err := m.cfg.Constraints.Check(res.Workflow); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrNoSolution, err)
		}
	}
	m.cfg.Observer.constructionDone(wfID, *res)
	return res, nil
}

// InitiateBatch runs one allocation session per specification,
// concurrently, and returns the plans in specification order. Workflow
// IDs are minted in that same order before any session starts, so a
// fixed community and specification list produce reproducible IDs
// regardless of goroutine interleaving. Sessions that fail leave a nil
// plan at their index; the returned error joins every session error
// (nil when all succeed).
func (m *Manager) InitiateBatch(ctx context.Context, specs []spec.Spec) ([]*Plan, error) {
	// Validate everything before minting any session: a late validation
	// error must not leave earlier specs' sessions registered forever.
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
	}
	sessions := make([]allocSession, len(specs))
	for i, s := range specs {
		sessions[i] = m.newSession(s)
	}
	plans := make([]*Plan, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer m.endSession()
			plans[i], errs[i] = m.run(ctx, sessions[i], nil)
		}(i)
	}
	wg.Wait()
	return plans, errors.Join(errs...)
}
