package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
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

// allocate auctions every task of w that placed has no executor for —
// every task on an Initiate (placed nil), the re-homed ones on a repair
// (placed is the allocation it keeps) — in topological order, windows
// staggered in that order, among candidates (nil = the whole community;
// repair passes the survivors), rotated by rot (see route). The plan rides
// on the awards: every task is decided before the first award goes out,
// so each award carries where its tasks' outputs go (award). With nothing
// to place it sends nothing.
//
// A try that leaves tasks unallocated — their providers may only be busy
// with another session's commitments now — cancels its own wins, and with
// them any routes they carried, and solicits the whole set again,
// postponed into the try's retry band (retryPostpone, retrySlot). It
// returns the last try's wins with their metas and the tasks it left
// unallocated; once the retries are spent those wins are the caller's to
// keep or cancel. On error the try's wins are cancelled.
func (m *Manager) allocate(ctx context.Context, wfID string, w *model.Workflow, placed map[model.TaskID]proto.Addr, candidates []proto.Addr, rot int) (won map[model.TaskID]proto.Addr, metas map[model.TaskID]proto.TaskMeta, failed []model.TaskID, err error) {
	slot := retrySlot(wfID)
	ids := slices.DeleteFunc(w.TopoOrder(), func(t model.TaskID) bool {
		_, ok := placed[t]
		return ok
	})
	if len(ids) == 0 {
		return nil, nil, nil, nil
	}
	for try := 0; ; try++ {
		solicited := m.taskMetas(w, ids, m.retryPostpone(try, slot))
		won = make(map[model.TaskID]proto.Addr, len(solicited))
		if failed, err = m.runAuction(ctx, wfID, candidates, rot, solicited, w, placed, won); err != nil {
			// Awards confirmed before the error, or canceled mid-call
			// (settleLost), are wins to release.
			m.cancelAwards(wfID, won)
			return nil, nil, nil, err
		}
		if len(failed) == 0 || try >= m.cfg.WindowRetries {
			metas = make(map[model.TaskID]proto.TaskMeta, len(won))
			for _, meta := range solicited {
				if _, ok := won[meta.Task]; ok {
					metas[meta.Task] = meta
				}
			}
			return won, metas, failed, nil
		}
		m.cancelAwards(wfID, won)
	}
}

// runAuction decides who executes metas, the tasks of w that placed has no
// executor for, awards the decisions (one Award per winner, see award), and
// records confirmed winners in alloc. It returns the tasks that ended
// unallocated — decided failed, award refused or undeliverable.
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
// the caller owns cleanup (allocate cancels them).
func (m *Manager) runAuction(ctx context.Context, wfID string, candidates []proto.Addr, rot int, metas []proto.TaskMeta, w *model.Workflow, placed, alloc map[model.TaskID]proto.Addr) (failed []model.TaskID, err error) {
	tasks := make([]model.TaskID, len(metas))
	for i, meta := range metas {
		tasks[i] = meta.Task
	}
	members, _ := m.route(candidates, nil, tasks, rot)
	if len(members) == 0 {
		// Every member is known and none offers any of these tasks: what
		// a broadcast would learn from a round of declines is already
		// known.
		for _, meta := range metas {
			m.cfg.Observer.taskDecided(wfID, meta.Task, "")
		}
		return unallocated(metas, alloc), nil
	}
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
	return unallocated(metas, alloc), nil
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

// award settles an auction's decisions: failed ones are reported, every
// loser is released before the first winner is told, and each winner is
// told once, of everything it won (awardWinner), holding first when hold
// says the decisions came from memory. A refused or undeliverable award
// re-enters the failure set for replanning.
//
// Each award carries the routes of its tasks' outputs in w: every executor
// is decided by now, or kept in placed.
func (m *Manager) award(ctx context.Context, wfID string, w *model.Workflow, ds []auction.Decision, placed map[model.TaskID]proto.Addr, hold bool, alloc map[model.TaskID]proto.Addr) error {
	// Failed decisions have no winner and sort first; a winner's decisions
	// stay in the auctioneer's order.
	slices.SortStableFunc(ds, func(a, b auction.Decision) int { return cmp.Compare(a.Winner, b.Winner) })
	// Release the losing bidders' reservations promptly, one Cancel per
	// loser: a Cancel for a task the host never committed drops exactly
	// the hold.
	lost := make(map[proto.Addr][]model.TaskID)
	for _, d := range ds {
		if d.Failed() {
			m.cfg.Observer.taskDecided(wfID, d.Task, "")
		}
		for _, loser := range d.Losers {
			lost[loser] = append(lost[loser], d.Task)
		}
	}
	m.cancel(ctx, wfID, lost)
	decided := ds
	executor := func(t model.TaskID) proto.Addr {
		for _, d := range decided {
			if d.Task == t {
				return d.Winner
			}
		}
		return placed[t]
	}
	for len(ds) > 0 {
		n := 1
		for n < len(ds) && ds[n].Winner == ds[0].Winner {
			n++
		}
		if !ds[0].Failed() {
			if err := m.awardWinner(ctx, wfID, ds[:n], m.awardRoutes(ds[:n], w, executor), hold, alloc); err != nil {
				return err
			}
		}
		ds = ds[n:]
	}
	return nil
}

// awardRoutes lists where the outputs of the tasks of ds go in w.
func (m *Manager) awardRoutes(ds []auction.Decision, w *model.Workflow, executor func(model.TaskID) proto.Addr) []proto.Route {
	n := 0
	for _, d := range ds {
		n += len(d.Meta.Outputs)
	}
	routes := make([]proto.Route, 0, n)
	for _, d := range ds {
		routes = m.routes(routes, d.Meta.Outputs, w, executor)
	}
	return routes
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

// awardWinner sends ds, all won by ds[0].Winner, in one Award carrying
// routes and hold, and settles each task by its own verdict: a confirmed
// task is recorded in alloc; a refused one re-enters the failure set alone
// (the winner freed its slot, HandleAward's rule).
func (m *Manager) awardWinner(ctx context.Context, wfID string, ds []auction.Decision, routes []proto.Route, hold bool, alloc map[model.TaskID]proto.Addr) error {
	winner := ds[0].Winner
	metas := make([]proto.TaskMeta, len(ds))
	for i, d := range ds {
		metas[i] = d.Meta
	}
	award := proto.Award{Meta: metas[0], More: metas[1:], Routes: routes, Hold: hold}
	reply, err := m.net.Call(ctx, winner, wfID, award, m.cfg.CallTimeout)
	if err != nil {
		return m.settleLost(ctx, wfID, winner, metas, alloc)
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

// settleLost settles the tasks of an Award whose call to member failed:
// the award may have reached the member although no reply came back.
// Canceled mid-call, all of them are recorded in alloc for the caller's
// cleanup to cancel along with everything already won, and ctx.Err() is
// returned. Otherwise (a timeout, a lost reply) the member gets one
// best-effort Cancel naming them all, still cancelable on the live ctx so
// it cannot hang on the very peer that just failed to answer, and each is
// decided failed.
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
		m.cfg.Observer.taskDecided(wfID, meta.Task, "")
	}
	_ = m.net.Send(ctx, member, wfID, proto.Cancel{Tasks: tasks})
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

// taskMetas computes the auction metadata for the tasks ids of w (§3.2:
// "the auction manager begins the allocation phase by computing metadata
// for each task used in allocating and executing the workflow"): data flow
// from the workflow and execution windows staggered in the order given —
// topological, so data dependencies and single-host schedules are both
// satisfiable — starting StartDelay + postpone from now.
func (m *Manager) taskMetas(w *model.Workflow, ids []model.TaskID, postpone time.Duration) []proto.TaskMeta {
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
// winners release their commitments: one Cancel per winner. It runs under a
// fresh context (compensation must go out even when the initiating request
// was canceled), hosts and tasks in sorted order for reproducibility. A
// Cancel names only wfID, so it can never revoke another session's
// commitments.
func (m *Manager) cancelAwards(wfID string, alloc map[model.TaskID]proto.Addr) {
	ids := make([]model.TaskID, 0, len(alloc))
	for t := range alloc {
		ids = append(ids, t)
	}
	slices.Sort(ids)
	won := make(map[proto.Addr][]model.TaskID)
	for _, t := range ids {
		won[alloc[t]] = append(won[alloc[t]], t)
	}
	m.cancel(context.Background(), wfID, won) //openwf:allow-background compensation must out-live the canceled request ctx or winners keep dead commitments
}

// cancel sends each host of tasks one Cancel naming its tasks, in host
// order. An auction with no loser costs it nothing: the hosts are
// collected by hand, since an iterator over an empty map still allocates.
func (m *Manager) cancel(ctx context.Context, wfID string, tasks map[proto.Addr][]model.TaskID) {
	hosts := make([]proto.Addr, 0, len(tasks))
	for h := range tasks {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts)
	for _, h := range hosts {
		_ = m.net.Send(ctx, h, wfID, proto.Cancel{Tasks: tasks[h]})
	}
}
