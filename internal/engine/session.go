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

// allocSession is the isolated state of one allocation session: one open
// workflow working its way through construct → auction → award →
// (replan). A host carries any number of sessions at once; each owns its
// workflow ID, its exclusion set, its replan counter, and — per attempt —
// its auctioneer. Nothing here is shared between sessions, so a replan in
// one session can never disturb another; the only cross-session contact
// points are the participants' schedule managers, which arbitrate slot
// conflicts first-hold-wins (see internal/schedule), and the host's index,
// where sessions share who is worth asking and nothing else.
type allocSession struct {
	m    *Manager
	wfID string
	// ordinal is the session's mint sequence number; concurrent
	// sessions use it to desynchronize their pairwise bid solicitation
	// sweeps (session k starts at member k mod N), so simultaneous
	// sessions begin at different hosts and contend minimally for the
	// same schedule windows.
	ordinal int
	spec    spec.Spec
	// excluded accumulates the failure feedback (§5.1): tasks proven
	// unallocatable in earlier attempts of this session.
	excluded []model.TaskID
	// attempt counts reconstructions (replans) of this session.
	attempt int
}

// newSession mints a workflow ID and counts the session in flight. IDs are
// assigned in call order, so callers that pre-create sessions before
// launching goroutines (InitiateBatch) get reproducible IDs.
func (m *Manager) newSession(s spec.Spec) *allocSession {
	sess := &allocSession{m: m, spec: s}
	m.mu.Lock()
	m.seq++
	sess.ordinal, sess.wfID = m.seq, string(m.net.Self())+"/"+strconv.Itoa(m.seq)
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

// run drives the session to a fully allocated plan: construct, allocate
// with window retries (Manager.allocate), and on persistent failure
// exclude the offending tasks and reconstruct (§5.1), up to MaxReplans.
func (sess *allocSession) run(ctx context.Context) (*Plan, error) {
	return sess.m.notFromMemory(func() (*Plan, error) { return sess.runOnce(ctx) })
}

// runOnce is one pass of run, starting from the configured exclusions
// alone: what an earlier pass excluded, it excluded on doubted memory.
func (sess *allocSession) runOnce(ctx context.Context) (*Plan, error) {
	m := sess.m
	sess.excluded = append([]model.TaskID(nil), m.cfg.Constraints.ExcludeTasks...)
	sess.attempt = 0
	for {
		res, err := m.construct(ctx, sess.wfID, sess.spec, nil, sess.excluded)
		if err != nil {
			return nil, err
		}
		if m.cfg.Constraints.MaxTasks > 0 {
			if err := m.cfg.Constraints.Check(res.Workflow); err != nil {
				return nil, fmt.Errorf("%w: %v", core.ErrNoSolution, err)
			}
		}
		m.cfg.Observer.constructionDone(sess.wfID, *res)
		w := res.Workflow
		alloc, metas, failed, err := m.allocate(ctx, sess.wfID, w, w.TopoOrder(), nil, sess.ordinal)
		if err != nil {
			return nil, err
		}
		if len(failed) == 0 {
			return &Plan{
				WorkflowID: sess.wfID, Spec: sess.spec, Workflow: w,
				Allocations: alloc, Metas: metas, Construction: *res, Replans: sess.attempt,
			}, nil
		}
		// Failure feedback (§5.1): the tasks stayed unallocatable; release
		// what was won, exclude them and reconstruct from the remaining
		// knowledge.
		m.cancelAwards(sess.wfID, alloc)
		sess.excluded = append(sess.excluded, failed...)
		if sess.attempt >= m.cfg.MaxReplans {
			return nil, fmt.Errorf("%w: tasks %v unallocatable after %d replans",
				ErrAllocationFailed, failed, sess.attempt)
		}
		sess.attempt++
		m.cfg.Observer.replanned(sess.wfID, sess.attempt, failed)
	}
}

// construct builds the workflow for s from the knowledge of members (nil
// means the whole community; plan repair passes the survivors), never
// using the exclude tasks. It is core's construction loop over the
// community; Incremental only chooses what a collection round asks for.
func (m *Manager) construct(ctx context.Context, wfID string, s spec.Spec, members []proto.Addr, exclude []model.TaskID) (*core.Result, error) {
	view := &communityView{m: m, wfID: wfID, members: members}
	var src core.KnowledgeSource = view
	if !m.cfg.Incremental {
		src = &fullCollection{view: view}
	}
	opts := core.IncrementalOptions{Exclude: exclude}
	if m.cfg.Feasibility {
		opts.Feasibility = view
	}
	return core.ConstructIncremental(ctx, src, s, opts)
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
	sessions := make([]*allocSession, len(specs))
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
			plans[i], errs[i] = sessions[i].run(ctx)
		}(i)
	}
	wg.Wait()
	return plans, errors.Join(errs...)
}
