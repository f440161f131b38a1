package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"openwf/internal/auction"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// retryBandPeriod spreads concurrent sessions' window retries across
// distinct bands (see retryPostpone).
const retryBandPeriod = 8

// retryPostpone is how far attempt try (0 = the first, not postponed)
// shifts its execution windows: deterministic decorrelated backoff. If all
// postponed alike, sessions that blocked each other (each winning some
// windows, none all, all compensating) would retry into the same band and
// re-collide forever, like synchronized CSMA. Instead the r-th retry lands
// in band (r-1)·P + (slot mod P) + 1 (P = retryBandPeriod), reproducibly.
func (m *Manager) retryPostpone(try, slot int) time.Duration {
	if try == 0 {
		return 0
	}
	return time.Duration((try-1)*retryBandPeriod+slot%retryBandPeriod+1) * m.cfg.StartDelay
}

// retrySlot is the retry slot of workflow wfID, which newSession mints as
// host/ordinal: the ordinal plus an FNV-1a hash of the host, so one host's
// consecutive sessions fill consecutive bands, two hosts' n-th sessions
// need not share one, and a repair retries in its allocation's slot.
func retrySlot(wfID string) int {
	i := strings.LastIndexByte(wfID, '/')
	ordinal, _ := strconv.Atoi(wfID[i+1:])
	h := uint32(2166136261)
	for _, c := range []byte(wfID[:max(i, 0)]) {
		h = (h ^ uint32(c)) * 16777619
	}
	return ordinal + int(h%retryBandPeriod)
}

// rebuildFunc reconstructs a workflow that uses none of the exclude tasks and
// returns it with the allocation of it that is kept (nil: none).
type rebuildFunc func(ctx context.Context, exclude []model.TaskID) (*model.Workflow, map[model.TaskID]proto.Addr, error)

// settle is the failure feedback of §5.1, written once: it allocates w —
// first built by rebuild when nil — and when tasks of it stay
// unallocatable, excludes them and allocates what rebuild makes of the
// remaining knowledge instead (Observer.Replanned), up to MaxReplans times;
// a nil rebuild never replans. Initiate, AllocateWorkflow and plan repair
// differ only in what they pass it.
//
// Each try auctions every task of w that placed has no executor for —
// every task on an Initiate, the re-homed ones on a repair (placed is the
// allocation it keeps) — in topological order, windows staggered in that
// order, among candidates (nil = the whole community; repair passes the
// survivors), rotated by rot (see route). The plan rides on the awards:
// every task is decided before the first award goes out, so each award
// carries where its tasks' outputs go (award). With nothing to place it
// sends nothing.
//
// A try that leaves tasks unallocated — their providers may only be busy
// with another session's commitments now — cancels its own wins, and with
// them any routes they carried, and solicits the whole set again,
// postponed into the try's retry band (retryPostpone, retrySlot), up to
// WindowRetries times before it replans; a rebuilt workflow's first try is
// not postponed. settle returns the workflow it settled on, its wins with
// their metas, and how often it replanned. On error the try's wins are
// cancelled.
func (m *Manager) settle(ctx context.Context, wfID string, w *model.Workflow, placed map[model.TaskID]proto.Addr, candidates []proto.Addr, rot int, rebuild rebuildFunc) (settled *model.Workflow, won map[model.TaskID]proto.Addr, metas map[model.TaskID]proto.TaskMeta, replans int, err error) {
	exclude := append([]model.TaskID(nil), m.cfg.Constraints.ExcludeTasks...)
	if w == nil {
		if w, placed, err = rebuild(ctx, exclude); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	slot := retrySlot(wfID)
	var buf [16]model.TaskID
	for try := 0; ; try++ {
		ids := unplaced(buf[:0], w, placed)
		if len(ids) == 0 {
			return w, nil, nil, replans, nil
		}
		solicited := m.taskMetas(w, ids, m.retryPostpone(try, slot))
		won = make(map[model.TaskID]proto.Addr, len(solicited))
		failed, err := m.runAuction(ctx, wfID, candidates, rot, solicited, w, placed, won)
		if err == nil && len(failed) == 0 {
			metas = make(map[model.TaskID]proto.TaskMeta, len(solicited))
			for _, meta := range solicited {
				metas[meta.Task] = meta
			}
			return w, won, metas, replans, nil
		}
		// Awards confirmed before an error, or canceled mid-call
		// (settleLost), are wins to release, as are a failed try's.
		m.cancelAwards(wfID, won)
		switch {
		case err != nil:
			return nil, nil, nil, replans, err
		case try < m.cfg.WindowRetries:
			continue
		case rebuild == nil || replans >= m.cfg.MaxReplans:
			return nil, nil, nil, replans, fmt.Errorf("%w: tasks %v unallocatable after %d replans",
				ErrAllocationFailed, failed, replans)
		}
		replans++
		m.replans.Add(1)
		if f := m.cfg.Observer.Replanned; f != nil {
			f(wfID, replans, failed)
		}
		exclude = append(exclude, failed...)
		if w, placed, err = rebuild(ctx, exclude); err != nil {
			return nil, nil, nil, replans, err
		}
		try = -1
	}
}

// unplaced appends to ids the tasks of w that placed has no executor for,
// in topological order, read from the workflow's cached order without a
// copy. settle hands it a 16-task stack array, so ordering an Initiate
// of up to 16 tasks allocates nothing.
func unplaced(ids []model.TaskID, w *model.Workflow, placed map[model.TaskID]proto.Addr) []model.TaskID {
	for t := range w.TopoSeq() {
		if _, ok := placed[t]; !ok {
			ids = append(ids, t)
		}
	}
	return ids
}

// runAuction decides who executes metas, the tasks of w that placed has no
// executor for, awards the decisions (one Award per winner, see award), and
// records confirmed winners in alloc. It reports each task's verdict
// (Observer.TaskDecided) once the try is over, and returns the tasks that
// ended unallocated — decided failed, award refused or undeliverable —
// sorted. A try that ends in an error reports no verdict.
//
// Bids are solicited only from the members of candidates (nil = the whole
// community) that can offer one of the tasks, starting at the member rot
// selects (see route): without the rotation every session visits hosts in
// the same order and the first sweep reserves slots on every host before
// the others arrive — concurrent Initiates would serialize into bands.
// Binding stays auction-based: routing narrows who is asked, never who
// wins. When memory knows one routed member to offer each task, every
// auction's outcome is known before it starts — that member wins or nobody
// does — so no call for bids goes out: the decisions come from memory
// (remembered) and the award asks each winner to hold as it commits
// (proto.Award.Hold).
//
// Otherwise the auction ends with its sweep. Every member is asked every
// task in one blocking call at a time, and a member whose call fails
// declines them all, so once the last has answered no bid can still
// arrive: the auctioneer decides every task then, on the bids in hand, and
// award releases every loser before the first winner is told.
//
// On error the awards already recorded in alloc are NOT compensated —
// the caller owns cleanup (settle cancels them).
func (m *Manager) runAuction(ctx context.Context, wfID string, candidates []proto.Addr, rot int, metas []proto.TaskMeta, w *model.Workflow, placed, alloc map[model.TaskID]proto.Addr) (failed []model.TaskID, err error) {
	tasks := make([]model.TaskID, len(metas))
	for i, meta := range metas {
		tasks[i] = meta.Task
	}
	// With no routed member, every member is known and none offers any of
	// these tasks: what a broadcast would learn from a round of declines is
	// already known.
	if members, _ := m.route(nil, candidates, nil, tasks, rot); len(members) > 0 {
		ds := m.remembered(members, tasks, metas)
		hold := ds != nil
		if !hold {
			if ds, err = m.sweep(ctx, wfID, members, tasks, metas); err != nil {
				return nil, err
			}
		}
		if err := m.award(ctx, wfID, w, ds, placed, hold, alloc); err != nil {
			return nil, err
		}
	}
	// Nothing above keeps tasks past its call, so the failed ones are
	// compacted into it.
	failed = tasks[:0]
	for _, t := range tasks {
		winner, ok := alloc[t]
		if f := m.cfg.Observer.TaskDecided; f != nil {
			f(wfID, t, winner)
		}
		if !ok {
			failed = append(failed, t)
		}
	}
	slices.Sort(failed)
	return failed, nil
}

// remembered decides metas from what the host's memory says of members,
// the routed ones: when every one of them is known and each task is offered
// by exactly one (discovery.Index.Sole), that member is its winner. It
// returns nil otherwise — a member to describe itself, a task contested or
// offered by none — and the whole session is auctioned. A session that
// fails on what it was told runs once more asking everyone (notFromMemory).
func (m *Manager) remembered(members []proto.Addr, tasks []model.TaskID, metas []proto.TaskMeta) []auction.Decision {
	only := m.idx.Sole(members, tasks)
	if only == nil || slices.Contains(only, "") {
		return nil
	}
	ds := make([]auction.Decision, len(metas))
	for i, meta := range metas {
		ds[i] = auction.Decision{Task: meta.Task, Winner: only[i], Meta: meta}
	}
	return ds
}

// sweep solicits bids for metas from members in turn (§5: time linear in
// the number of hosts; one CallForBidsBatch per member, answered by one
// BidBatch) and returns the auctioneer's decisions once the last has
// answered.
func (m *Manager) sweep(ctx context.Context, wfID string, members []proto.Addr, tasks []model.TaskID, metas []proto.TaskMeta) ([]auction.Decision, error) {
	auc, err := auction.NewAuctioneer(members, metas)
	if err != nil {
		return nil, err
	}
	var ds []auction.Decision
	for _, out := range auc.StartBatched() {
		reply, err := m.net.Call(ctx, out.To, wfID, out.Body, m.cfg.CallTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			reply = proto.BidBatch{Declines: tasks} // for the auction it declines everything
		}
		bids, ok := reply.(proto.BidBatch)
		if !ok {
			return nil, fmt.Errorf("call for bids to %q: unexpected reply %T", out.To, reply)
		}
		ds = auc.HandleBidBatch(out.To, bids, time.Time{})
	}
	return ds, nil
}

// award settles an auction's decisions: every loser is released before the
// first winner is told, and each winner is told once, of everything it won
// (awardWinner), holding first when hold says the decisions came from
// memory. A failed decision, or a refused or undeliverable award, leaves
// its task out of alloc, in the failure set for replanning.
//
// Each award carries the routes of its tasks' outputs in w: every executor
// is decided by now, or kept in placed. The awards' metas and routes are
// carved from one slab each, every winner's windows capped at their own
// end; the routes' is sized for one route per output and grows only for an
// output whose consumers run on several hosts.
func (m *Manager) award(ctx context.Context, wfID string, w *model.Workflow, ds []auction.Decision, placed map[model.TaskID]proto.Addr, hold bool, alloc map[model.TaskID]proto.Addr) error {
	// Release the losing bidders' reservations promptly, one Cancel per
	// loser: a Cancel for a task the host never committed drops exactly
	// the hold. The (loser, task) pairs come from one slab and the losers'
	// lists from another, both sized by a first pass over the losses; each
	// list is its own stretch of it, since Send may keep the body.
	type loss struct {
		loser proto.Addr
		task  model.TaskID
	}
	nlost, won, outputs := 0, 0, 0
	for _, d := range ds {
		if !d.Failed() {
			won++
			outputs += len(d.Meta.Outputs)
		}
		nlost += len(d.Losers)
	}
	losses := make([]loss, 0, nlost)
	for _, d := range ds {
		for _, loser := range d.Losers {
			losses = append(losses, loss{loser, d.Task})
		}
	}
	tasks := make([]model.TaskID, 0, nlost)
	byPeer(losses, func(l loss) proto.Addr { return l.loser }, func(loser proto.Addr, run []loss) error {
		from := len(tasks)
		for _, l := range run {
			tasks = append(tasks, l.task)
		}
		_ = m.net.Send(ctx, loser, wfID, proto.Cancel{Tasks: tasks[from:len(tasks):len(tasks)]})
		return nil
	})
	executor := func(t model.TaskID) proto.Addr {
		for _, d := range ds {
			if d.Task == t {
				return d.Winner
			}
		}
		return placed[t]
	}
	metas := make([]proto.TaskMeta, 0, won)
	routes := make([]proto.Route, 0, outputs)
	// Failed decisions have no winner and come first; a winner's decisions
	// stay in the auctioneer's order.
	return byPeer(ds, func(d auction.Decision) proto.Addr { return d.Winner }, func(winner proto.Addr, run []auction.Decision) error {
		if winner == "" {
			return nil
		}
		mfrom, rfrom := len(metas), len(routes)
		for _, d := range run {
			metas = append(metas, d.Meta)
			routes = m.routes(routes, d.Meta.Outputs, w, executor)
		}
		return m.awardWinner(ctx, wfID, run, metas[mfrom:len(metas):len(metas)], routes[rfrom:len(routes):len(routes)], hold, alloc)
	})
}

// byPeer is where DESIGN.md §9's rule is written: every phase of a session
// speaks to each peer once, in host order. It sorts xs stably by peer and
// calls each once per peer, in address order, with that peer's run of xs,
// capped at its own end, so appending to one run leaves the next intact.
// It stops at the first error each returns.
func byPeer[T any](xs []T, peer func(T) proto.Addr, each func(proto.Addr, []T) error) error {
	slices.SortStableFunc(xs, func(a, b T) int { return cmp.Compare(peer(a), peer(b)) })
	for len(xs) > 0 {
		p, n := peer(xs[0]), 1
		for n < len(xs) && peer(xs[n]) == p {
			n++
		}
		if err := each(p, xs[:n:n]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// routes appends where outputs go in w: one route to each distinct
// executor of a task consuming the output or, for a goal label — one no
// task consumes — one to this host; by label, then host. A consumer with no
// executor is left out: its auction failed, so the try fails and its
// awards are cancelled.
func (m *Manager) routes(rs []proto.Route, outputs []model.LabelID, w *model.Workflow, executor func(model.TaskID) proto.Addr) []proto.Route {
	for _, out := range outputs {
		from := len(rs)
		consumed := false
		for c := range w.ConsumersSeq(out) {
			consumed = true
			if r := (proto.Route{Label: out, To: executor(c)}); r.To != "" && !slices.Contains(rs[from:], r) {
				rs = append(rs, r)
			}
		}
		if !consumed {
			rs = append(rs, proto.Route{Label: out, To: m.net.Self()})
		}
		slices.SortFunc(rs[from:], func(a, b proto.Route) int { return cmp.Compare(a.To, b.To) })
	}
	return rs
}

// awardWinner sends ds, all won by ds[0].Winner, in one Award of their
// metas carrying routes and hold, and settles each task alone: one the ack
// names as refused stays out of alloc (the winner freed its slot,
// HandleAward's rule), and every other is confirmed and recorded in alloc.
// An ack that refuses a task the award did not carry, or one task twice,
// is a protocol error, and nothing of it is recorded.
func (m *Manager) awardWinner(ctx context.Context, wfID string, ds []auction.Decision, metas []proto.TaskMeta, routes []proto.Route, hold bool, alloc map[model.TaskID]proto.Addr) error {
	winner := ds[0].Winner
	award := proto.Award{Meta: metas[0], More: metas[1:], Routes: routes, Hold: hold}
	reply, err := m.net.Call(ctx, winner, wfID, award, m.cfg.CallTimeout)
	if err != nil {
		return m.settleLost(ctx, wfID, winner, metas, alloc)
	}
	ack, ok := reply.(proto.AwardAck)
	if !ok {
		return fmt.Errorf("award to %q: unexpected reply %T", winner, reply)
	}
	for i, v := range ack.Refused {
		if !slices.ContainsFunc(ds, func(d auction.Decision) bool { return d.Task == v.Task }) {
			return fmt.Errorf("award to %q: refuses %q, which it was not awarded", winner, v.Task)
		}
		if slices.ContainsFunc(ack.Refused[:i], func(r proto.Verdict) bool { return r.Task == v.Task }) {
			return fmt.Errorf("award to %q: refuses %q twice", winner, v.Task)
		}
	}
	for _, d := range ds {
		if !slices.ContainsFunc(ack.Refused, func(r proto.Verdict) bool { return r.Task == d.Task }) {
			alloc[d.Task] = winner
		}
	}
	return nil
}

// settleLost settles the tasks of an Award whose call to member failed:
// the award may have reached the member although no reply came back.
// Canceled mid-call, all of them are recorded in alloc for the caller's
// cleanup to cancel along with everything already won, and ctx.Err() is
// returned. Otherwise (a timeout, a lost reply) the member gets one
// best-effort Cancel naming them all, still cancelable on the live ctx so
// it cannot hang on the very peer that just failed to answer, and none is
// recorded.
func (m *Manager) settleLost(ctx context.Context, wfID string, member proto.Addr, metas []proto.TaskMeta, alloc map[model.TaskID]proto.Addr) error {
	if err := ctx.Err(); err != nil {
		for _, meta := range metas {
			alloc[meta.Task] = member
		}
		return err
	}
	tasks := make([]model.TaskID, len(metas))
	for i, meta := range metas {
		tasks[i] = meta.Task
	}
	_ = m.net.Send(ctx, member, wfID, proto.Cancel{Tasks: tasks})
	return nil
}

// taskMetas computes the auction metadata for the tasks ids of w (§3.2:
// "the auction manager begins the allocation phase by computing metadata
// for each task used in allocating and executing the workflow"): data flow
// from the workflow and execution windows staggered in the order given —
// topological, so data dependencies and single-host schedules are both
// satisfiable — starting StartDelay + postpone from now.
//
// The metas' label lists are carved from one slab, each capped at its own
// end, so a session's metas cost two allocations however many tasks it
// has, and appending to one list never writes into the next.
func (m *Manager) taskMetas(w *model.Workflow, ids []model.TaskID, postpone time.Duration) []proto.TaskMeta {
	base := m.net.Clock().Now().Add(m.cfg.StartDelay + postpone)
	n := 0
	for _, id := range ids {
		t, _ := w.TaskView(id)
		n += len(t.Inputs) + len(t.Outputs)
	}
	slab := make([]model.LabelID, 0, n)
	carve := func(labels []model.LabelID) []model.LabelID {
		if len(labels) == 0 {
			return nil
		}
		from := len(slab)
		slab = append(slab, labels...)
		return slab[from:len(slab):len(slab)]
	}
	metas := make([]proto.TaskMeta, 0, len(ids))
	for i, id := range ids {
		t, _ := w.TaskView(id)
		start := base.Add(time.Duration(i) * m.cfg.TaskWindow)
		metas = append(metas, proto.TaskMeta{
			Task:    t.ID,
			Mode:    t.Mode,
			Inputs:  carve(t.Inputs),
			Outputs: carve(t.Outputs),
			Start:   start,
			End:     start.Add(m.cfg.TaskWindow),
		})
	}
	return metas
}

// cancelAwards compensates auction wins that will not be used — a failed
// try about to be retried or replanned, a repair that ended with the
// execution, tasks a repair's reconstruction dropped — so the
// winners release their commitments: one Cancel per winner, naming its
// tasks in order. It runs under a fresh context (compensation must go out
// even when the initiating request was canceled). A Cancel names only
// wfID, so it can never revoke another session's commitments. The tasks
// are collected by hand: an iterator over an empty map still allocates.
func (m *Manager) cancelAwards(wfID string, alloc map[model.TaskID]proto.Addr) {
	ctx := context.Background() //openwf:allow-background compensation must out-live the canceled request ctx or winners keep dead commitments
	ids := make([]model.TaskID, 0, len(alloc))
	for t := range alloc {
		ids = append(ids, t)
	}
	slices.Sort(ids)
	byPeer(ids, func(t model.TaskID) proto.Addr { return alloc[t] }, func(h proto.Addr, tasks []model.TaskID) error {
		_ = m.net.Send(ctx, h, wfID, proto.Cancel{Tasks: tasks})
		return nil
	})
}
