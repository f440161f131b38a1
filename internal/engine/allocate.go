package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"openwf/internal/auction"
	"openwf/internal/core"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// allocate runs the auction for every task of the constructed workflow and
// returns the plan plus any tasks that could not be allocated. postpone
// shifts every execution window into the future (allocation retry).
// Context cancellation aborts bid solicitation and deadline waits
// promptly with ctx.Err(). The auctioneer is per-session, per-attempt
// state owned by this call; concurrent sessions on the same engine run
// disjoint auctions and meet only at the participants' schedule managers.
func (sess *allocSession) allocate(ctx context.Context, res *core.Result, postpone time.Duration) (*Plan, []model.TaskID, error) {
	m := sess.m
	w := res.Workflow
	metas := m.taskMetas(w, postpone)
	plan := &Plan{
		WorkflowID:   sess.wfID,
		Spec:         sess.spec,
		Workflow:     w,
		Allocations:  make(map[model.TaskID]proto.Addr, len(metas)),
		Metas:        make(map[model.TaskID]proto.TaskMeta, len(metas)),
		Construction: *res,
	}
	for _, meta := range metas {
		plan.Metas[meta.Task] = meta
	}

	failed, err := m.runAuction(ctx, sess.wfID, nil, sess.ordinal, metas, plan.Allocations)
	if err != nil {
		// Whatever was already won is compensated (canceled) so no winner
		// keeps a dead commitment blocking its schedule window: decision-
		// time awards go out during the sweep, so a mid-sweep error always
		// has something to release.
		m.cancelAwards(sess.wfID, plan.Allocations)
		return nil, nil, err
	}
	return plan, failed, nil
}

// runAuction solicits bids for metas (one CallForBidsBatch per member,
// answered by one BidBatch — one round trip per member), awards the
// decisions the moment the auctioneer makes them (one Award per winner,
// see award), and records confirmed winners in alloc. It returns the tasks
// that ended unallocated — decided failed, award refused or undeliverable,
// or never decided at all.
//
// Bids are solicited only from the members of candidates (nil = the whole
// community) that can offer one of the tasks, starting at the member rot
// selects (see route): without the rotation every session visits hosts in
// the same order and the first sweep reserves slots on every host before
// the others arrive — concurrent Initiates would serialize into bands.
// Binding stays auction-based: routing narrows who is asked, never who
// wins. A task the routing leaves one member to ask has its auction's
// outcome before it starts — that member wins or nobody does — so its
// award rides on that member's call for bids (soleTasks) and the
// auctioneer runs the others.
//
// Awarding (and canceling losers) at decision time releases contended
// schedule slots a full round earlier than a collect-then-award shape:
// under concurrent sessions a loser's reservation held until the end of
// the sweep blocks every other workflow racing for that window.
//
// On error the awards already recorded in alloc are NOT compensated —
// the caller owns cleanup (allocate cancels the failed plan's awards;
// repair cancels what it won and aborts the execution).
func (m *Manager) runAuction(ctx context.Context, wfID string, candidates []proto.Addr, rot int, metas []proto.TaskMeta, alloc map[model.TaskID]proto.Addr) ([]model.TaskID, error) {
	tasks := make([]model.TaskID, len(metas))
	for i, meta := range metas {
		tasks[i] = meta.Task
	}
	members, describe := m.route(candidates, nil, tasks, rot)
	if len(members) == 0 {
		// Every member is known and none offers any of these tasks: what
		// a broadcast would learn from a round of declines is already
		// known.
		for _, meta := range metas {
			m.cfg.Observer.taskDecided(wfID, meta.Task, "")
		}
		return unallocated(metas, alloc), nil
	}
	open, sole := metas, map[proto.Addr][]proto.TaskMeta(nil)
	if !describe {
		open, sole = m.soleTasks(members, tasks, metas)
	}
	auc, err := auction.NewAuctioneer(members, open)
	if err != nil {
		return nil, err
	}
	clk := m.net.Clock()

	// Solicit bids from every member in turn (§5: time linear in the
	// number of hosts); decisions are awarded as they finalize.
	for _, out := range auc.StartBatched() {
		mine := sole[out.To]
		if len(mine) > 0 {
			cfb := out.Body.(proto.CallForBidsBatch)
			cfb.Metas = slices.Concat(cfb.Metas, mine)
			cfb.Sole = make([]model.TaskID, len(mine))
			for i, meta := range mine {
				cfb.Sole[i] = meta.Task
			}
			out.Body = cfb
		}
		reply, err := m.net.Call(ctx, out.To, wfID, out.Body, m.cfg.CallTimeout)
		if err != nil {
			if ctx.Err() != nil {
				// Canceled mid-call: the member may have committed its own
				// tasks although its reply never came back, so record them
				// for the caller's cleanup, as an interrupted award is.
				for _, meta := range mine {
					alloc[meta.Task] = out.To
				}
				return nil, ctx.Err()
			}
			// Member unreachable: it simply does not bid. Its own tasks are
			// lost awards — it may hold them committed — and are settled as
			// awardWinner settles those.
			for _, meta := range mine {
				_ = m.net.Send(ctx, out.To, wfID, proto.Cancel{Task: meta.Task})
				m.cfg.Observer.taskDecided(wfID, meta.Task, "")
			}
			continue
		}
		bids, ok := reply.(proto.BidBatch)
		if !ok {
			return nil, fmt.Errorf("call for bids to %q: unexpected reply %T", out.To, reply)
		}
		for _, meta := range mine {
			// A bid for a task that rode on the call is its commitment.
			var winner proto.Addr
			if slices.ContainsFunc(bids.Bids, func(b proto.Bid) bool { return b.Task == meta.Task }) {
				winner = out.To
				alloc[meta.Task] = winner
			}
			m.cfg.Observer.taskDecided(wfID, meta.Task, winner)
		}
		if err := m.award(ctx, wfID, auc.HandleBidBatch(out.To, bids, clk.Now()), alloc); err != nil {
			return nil, err
		}
	}

	// Undecided tasks (some member never answered) wait for the
	// tentative winner's deadline: the auction manager waits as long as
	// possible, but once some participant can do the task, the task is
	// guaranteed to be allocated.
	for !auc.Done() {
		deadline, ok := auc.NextDeadline()
		if !ok {
			// No tentative winner anywhere and not everyone
			// responded: the remaining tasks cannot be allocated.
			break
		}
		if wait := deadline.Sub(clk.Now()); wait > 0 {
			select {
			case <-clk.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := m.award(ctx, wfID, auc.Tick(clk.Now()), alloc); err != nil {
			return nil, err
		}
	}

	return unallocated(metas, alloc), nil
}

// soleTasks splits metas by what the host's memory says of members, the
// routed ones, every one of them known: a task exactly one of them offers
// goes to that member's list in sole (discovery.Index.Sole), the others
// stay open for the auction. Memory that would have left the auctioneer
// one member to hear from on a task names that member here instead; a
// session that fails on what it was told runs once more asking everyone
// (notFromMemory).
func (m *Manager) soleTasks(members []proto.Addr, tasks []model.TaskID, metas []proto.TaskMeta) (open []proto.TaskMeta, sole map[proto.Addr][]proto.TaskMeta) {
	only := m.idx.Sole(members, tasks)
	if only == nil {
		return metas, nil
	}
	sole = make(map[proto.Addr][]proto.TaskMeta)
	for i, meta := range metas {
		if only[i] == "" {
			open = append(open, meta)
		} else {
			sole[only[i]] = append(sole[only[i]], meta)
		}
	}
	return open, sole
}

// award finalizes the decisions one reply or one tick produced: failed
// ones are reported, every loser is released, and each winner is told
// once, of everything it won (awardWinner). A refused or undeliverable
// award re-enters the failure set for replanning.
func (m *Manager) award(ctx context.Context, wfID string, ds []auction.Decision, alloc map[model.TaskID]proto.Addr) error {
	// Failed decisions have no winner and sort first; a winner's decisions
	// stay in the auctioneer's order.
	slices.SortStableFunc(ds, func(a, b auction.Decision) int { return cmp.Compare(a.Winner, b.Winner) })
	for _, d := range ds {
		if d.Failed() {
			m.cfg.Observer.taskDecided(wfID, d.Task, "")
		}
		// Release the losing bidders' reservations promptly: a Cancel for
		// a task the host never committed drops exactly the hold.
		for _, loser := range d.Losers {
			_ = m.net.Send(ctx, loser, wfID, proto.Cancel{Task: d.Task})
		}
	}
	for len(ds) > 0 {
		n := 1
		for n < len(ds) && ds[n].Winner == ds[0].Winner {
			n++
		}
		if !ds[0].Failed() {
			if err := m.awardWinner(ctx, wfID, ds[:n], alloc); err != nil {
				return err
			}
		}
		ds = ds[n:]
	}
	return nil
}

// awardWinner sends ds, all won by ds[0].Winner, in one Award and settles
// each task by its own verdict: a confirmed task is recorded in alloc, a
// refused one re-enters the failure set alone (the winner freed its slot,
// HandleAward's rule).
func (m *Manager) awardWinner(ctx context.Context, wfID string, ds []auction.Decision, alloc map[model.TaskID]proto.Addr) error {
	winner := ds[0].Winner
	body := proto.Award{Meta: ds[0].Meta, More: make([]proto.TaskMeta, len(ds)-1)}
	for i, d := range ds[1:] {
		body.More[i] = d.Meta
	}
	reply, err := m.net.Call(ctx, winner, wfID, body, m.cfg.CallTimeout)
	if err != nil {
		if ctx.Err() != nil {
			// Canceled mid-award: the interrupted award may have reached
			// its winner even though the ack never came back, so record
			// all of it and let the caller's cleanup cancel it along with
			// everything already won.
			for _, d := range ds {
				alloc[d.Task] = winner
			}
			return ctx.Err()
		}
		// The call failed without the context being canceled (a timeout or
		// a lost ack). The award itself may still have reached the winner,
		// which would then hold dead commitments blocking its schedule
		// windows while the tasks are replanned elsewhere — send a
		// best-effort Cancel for each. Unlike cancelAwards, ctx is still
		// live here, so the sends stay cancelable and cannot hang on the
		// very peer that just failed to answer.
		for _, d := range ds {
			_ = m.net.Send(ctx, winner, wfID, proto.Cancel{Task: d.Task})
			m.cfg.Observer.taskDecided(wfID, d.Task, "")
		}
		return nil
	}
	ack, ok := reply.(proto.AwardAck)
	if !ok {
		return fmt.Errorf("award to %q: unexpected reply %T", winner, reply)
	}
	if len(ack.Verdicts) != len(ds) {
		return fmt.Errorf("award to %q: %d verdicts on %d tasks", winner, len(ack.Verdicts), len(ds))
	}
	for i, verdict := range ack.Verdicts {
		if !verdict.OK {
			m.cfg.Observer.taskDecided(wfID, ds[i].Task, "")
			continue
		}
		alloc[ds[i].Task] = winner
		m.cfg.Observer.taskDecided(wfID, ds[i].Task, winner)
	}
	return nil
}

// unallocated returns the tasks of metas that alloc has no winner for,
// sorted.
func unallocated(metas []proto.TaskMeta, alloc map[model.TaskID]proto.Addr) []model.TaskID {
	failed := make([]model.TaskID, 0, len(metas))
	for _, meta := range metas {
		if _, ok := alloc[meta.Task]; !ok {
			failed = append(failed, meta.Task)
		}
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	return failed
}

// taskMetas computes the auction metadata for every task (§3.2: "the
// auction manager begins the allocation phase by computing metadata for
// each task used in allocating and executing the workflow"): data flow
// from the workflow and execution windows staggered by topological order,
// so data dependencies and single-host schedules are both satisfiable.
func (m *Manager) taskMetas(w *model.Workflow, postpone time.Duration) []proto.TaskMeta {
	return m.taskMetasFor(w, w.TopoOrder(), postpone)
}

// taskMetasFor computes fresh auction metadata for a subset of a
// workflow's tasks, in the given order (plan repair re-auctions only the
// affected tasks, with windows starting from now).
func (m *Manager) taskMetasFor(w *model.Workflow, ids []model.TaskID, postpone time.Duration) []proto.TaskMeta {
	base := m.net.Clock().Now().Add(m.cfg.StartDelay + postpone)
	metas := make([]proto.TaskMeta, 0, len(ids))
	for i, id := range ids {
		t, _ := w.Task(id)
		start := base.Add(time.Duration(i) * m.cfg.TaskWindow)
		metas = append(metas, proto.TaskMeta{
			Task:    t.ID,
			Mode:    t.Mode,
			Inputs:  t.Inputs,
			Outputs: t.Outputs,
			Start:   start,
			End:     start.Add(m.cfg.TaskWindow),
		})
	}
	return metas
}

// cancelAwards compensates auction wins that will not be used — a failed
// allocation attempt about to be retried or replanned, a repair that did
// not hold together, tasks a repair's reconstruction dropped — so the
// winners release their commitments. It runs under a fresh context (compensation must go out
// even when the initiating request was canceled), in sorted order for
// reproducibility. A Cancel names only wfID, so it can never revoke
// another session's commitments.
func (m *Manager) cancelAwards(wfID string, alloc map[model.TaskID]proto.Addr) {
	ids := make([]model.TaskID, 0, len(alloc))
	for t := range alloc {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, t := range ids {
		_ = m.net.Send(context.Background(), alloc[t], wfID, proto.Cancel{Task: t}) //openwf:allow-background compensation must out-live the canceled request ctx or winners keep dead commitments
	}
}
