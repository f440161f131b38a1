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

// allocate auctions the tasks ids of w, windows staggered in that order,
// among candidates (nil = the whole community; repair passes the
// survivors), rotated by rot (see route). ids nil is every task of w in
// topological order, and then the plan rides on the awards: the sweep
// decides every task before the first award goes out, so each award can
// carry where its tasks' outputs go (runAuction). A repair names the tasks
// it re-homes and distributes the whole plan itself.
//
// A try that leaves tasks unallocated — their providers may only be busy
// with another session's commitments now — cancels its own wins, and with
// them any routes they carried, and solicits the whole set again,
// postponed into the try's retry band (retryPostpone, retrySlot). It
// returns the last try's wins with their metas, the won tasks whose
// winners hold their routes, and the tasks it left unallocated; once the
// retries are spent those wins are the caller's to keep or cancel. On
// error the try's wins are cancelled.
func (m *Manager) allocate(ctx context.Context, wfID string, w *model.Workflow, ids []model.TaskID, candidates []proto.Addr, rot int) (won map[model.TaskID]proto.Addr, metas map[model.TaskID]proto.TaskMeta, routed, failed []model.TaskID, err error) {
	slot := retrySlot(wfID)
	whole := ids == nil
	if whole {
		ids = w.TopoOrder()
	}
	for try := 0; ; try++ {
		solicited := m.taskMetas(w, ids, m.retryPostpone(try, slot))
		won = make(map[model.TaskID]proto.Addr, len(solicited))
		if failed, routed, err = m.runAuction(ctx, wfID, candidates, rot, solicited, whole, won); err != nil {
			// Awards riding on the calls for bids go out during the sweep,
			// so an error may leave wins to release.
			m.cancelAwards(wfID, won)
			return nil, nil, nil, nil, err
		}
		if len(failed) == 0 || try >= m.cfg.WindowRetries {
			metas = make(map[model.TaskID]proto.TaskMeta, len(won))
			for _, meta := range solicited {
				if _, ok := won[meta.Task]; ok {
					metas[meta.Task] = meta
				}
			}
			return won, metas, routed, failed, nil
		}
		m.cancelAwards(wfID, won)
	}
}

// runAuction solicits bids for metas (one CallForBidsBatch per member,
// answered by one BidBatch — one round trip per member), awards the
// auctioneer's decisions once the sweep ends (one Award per winner, see
// award), and records confirmed winners in alloc. It returns the tasks
// that ended unallocated — decided failed, award refused or undeliverable
// — and, when metas are every task of the workflow (whole), the awarded
// tasks whose winners confirmed holding the routes their award carried.
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
// The auction ends with its sweep. Every member is asked every open task
// in one blocking call at a time, and a member whose call fails declines
// them all, so once the last has answered no bid can still arrive: the
// auctioneer decides every task then, on the bids in hand, and award
// releases every loser before the first winner is told.
//
// On error the awards already recorded in alloc are NOT compensated —
// the caller owns cleanup (allocate cancels them).
func (m *Manager) runAuction(ctx context.Context, wfID string, candidates []proto.Addr, rot int, metas []proto.TaskMeta, whole bool, alloc map[model.TaskID]proto.Addr) (failed, routed []model.TaskID, err error) {
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
		return unallocated(metas, alloc), nil, nil
	}
	open, sole := metas, map[proto.Addr][]proto.TaskMeta(nil)
	if !describe {
		open, sole = m.soleTasks(members, tasks, metas)
	}
	auc, err := auction.NewAuctioneer(members, open)
	if err != nil {
		return nil, nil, err
	}

	// Solicit bids from every member in turn (§5: time linear in the
	// number of hosts); the last answer decides every open task.
	var ds []auction.Decision
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
			// Its own tasks are lost awards, settled as awardWinner settles
			// those; for the auction it declines everything.
			if err := m.settleLost(ctx, wfID, out.To, mine, alloc); err != nil {
				return nil, nil, err
			}
			reply, mine = proto.BidBatch{Declines: tasks}, nil
		}
		bids, ok := reply.(proto.BidBatch)
		if !ok {
			return nil, nil, fmt.Errorf("call for bids to %q: unexpected reply %T", out.To, reply)
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
		ds = auc.HandleBidBatch(out.To, bids, time.Time{})
	}
	var all []proto.TaskMeta
	if whole {
		all = metas
	}
	if routed, err = m.award(ctx, wfID, ds, all, alloc); err != nil {
		return nil, nil, err
	}
	return unallocated(metas, alloc), routed, nil
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

// award settles an auction's decisions: failed ones are reported, every
// loser is released before the first winner is told, and each winner is
// told once, of everything it won (awardWinner). A refused or
// undeliverable award re-enters the failure set for replanning.
//
// With all, the metas of every task of the workflow, each award carries
// the routes of its tasks' outputs: every executor is known by now, a sole
// win in alloc or a decision in ds. It returns the tasks whose winners
// confirmed holding them (proto.AwardAck.Routed).
func (m *Manager) award(ctx context.Context, wfID string, ds []auction.Decision, all []proto.TaskMeta, alloc map[model.TaskID]proto.Addr) (routed []model.TaskID, err error) {
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
	if all != nil && len(ds) > 0 {
		routed = make([]model.TaskID, 0, len(ds))
	}
	executor := func(t model.TaskID) proto.Addr {
		if to, ok := alloc[t]; ok {
			return to
		}
		for _, d := range decided {
			if d.Task == t {
				return d.Winner
			}
		}
		return ""
	}
	for len(ds) > 0 {
		n := 1
		for n < len(ds) && ds[n].Winner == ds[0].Winner {
			n++
		}
		if !ds[0].Failed() {
			var routes []proto.Route
			if all != nil {
				routes = m.awardRoutes(ds[:n], all, executor)
			}
			if routed, err = m.awardWinner(ctx, wfID, ds[:n], routes, alloc, routed); err != nil {
				return nil, err
			}
		}
		ds = ds[n:]
	}
	return routed, nil
}

// awardRoutes lists where the outputs of the tasks of ds go, or nil when
// some consumer has no executor: a decision failed, so the try fails and
// its awards are cancelled.
func (m *Manager) awardRoutes(ds []auction.Decision, all []proto.TaskMeta, executor func(model.TaskID) proto.Addr) []proto.Route {
	n := 0
	for _, d := range ds {
		n += len(d.Meta.Outputs)
	}
	routes := make([]proto.Route, 0, n)
	for _, d := range ds {
		var ok bool
		if routes, ok = m.routes(routes, d.Meta, all, executor); !ok {
			return nil
		}
	}
	return routes
}

// routes appends where the outputs of task go, all being the metas of
// every task of the workflow: one route to each distinct executor of a
// task consuming the output or, for a goal label — one no task consumes —
// one to this host; by label, then host. It reports false, leaving the
// consumer out, when a consumer has no executor.
func (m *Manager) routes(rs []proto.Route, task proto.TaskMeta, all []proto.TaskMeta, executor func(model.TaskID) proto.Addr) ([]proto.Route, bool) {
	ok := true
	for _, out := range task.Outputs {
		from := len(rs)
		consumed := false
		for _, c := range all {
			if !slices.Contains(c.Inputs, out) {
				continue
			}
			consumed = true
			r := proto.Route{Label: out, To: executor(c.Task)}
			if r.To == "" {
				ok = false
			} else if !slices.Contains(rs[from:], r) {
				rs = append(rs, r)
			}
		}
		if !consumed {
			rs = append(rs, proto.Route{Label: out, To: m.net.Self()})
		}
		slices.SortFunc(rs[from:], func(a, b proto.Route) int { return cmp.Compare(a.To, b.To) })
	}
	return rs, ok
}

// awardWinner sends ds, all won by ds[0].Winner, in one Award carrying
// routes, and settles each task by its own verdict: a confirmed task is
// recorded in alloc, and appended to routed when the winner confirmed
// holding the routes; a refused one re-enters the failure set alone (the
// winner freed its slot, HandleAward's rule).
func (m *Manager) awardWinner(ctx context.Context, wfID string, ds []auction.Decision, routes []proto.Route, alloc map[model.TaskID]proto.Addr, routed []model.TaskID) ([]model.TaskID, error) {
	winner := ds[0].Winner
	metas := make([]proto.TaskMeta, len(ds))
	for i, d := range ds {
		metas[i] = d.Meta
	}
	reply, err := m.net.Call(ctx, winner, wfID, proto.Award{Meta: metas[0], More: metas[1:], Routes: routes}, m.cfg.CallTimeout)
	if err != nil {
		return routed, m.settleLost(ctx, wfID, winner, metas, alloc)
	}
	ack, ok := reply.(proto.AwardAck)
	if !ok {
		return nil, fmt.Errorf("award to %q: unexpected reply %T", winner, reply)
	}
	if len(ack.Verdicts) != len(ds) {
		return nil, fmt.Errorf("award to %q: %d verdicts on %d tasks", winner, len(ack.Verdicts), len(ds))
	}
	for i, verdict := range ack.Verdicts {
		if !verdict.OK {
			m.cfg.Observer.taskDecided(wfID, ds[i].Task, "")
			continue
		}
		alloc[ds[i].Task] = winner
		if ack.Routed && routes != nil {
			routed = append(routed, ds[i].Task)
		}
		m.cfg.Observer.taskDecided(wfID, ds[i].Task, winner)
	}
	return routed, nil
}

// settleLost settles the awards a failed call to member carried — an
// Award, or the tasks riding on a call for bids: the call may have reached
// the member although no reply came back. Canceled mid-call, all of them
// are recorded in alloc for the caller's cleanup to cancel along with
// everything already won, and ctx.Err() is returned. Otherwise (a timeout,
// a lost reply) the member gets one best-effort Cancel naming them all,
// still cancelable on the live ctx so it cannot hang on the very peer that
// just failed to answer, and each is decided failed.
func (m *Manager) settleLost(ctx context.Context, wfID string, member proto.Addr, metas []proto.TaskMeta, alloc map[model.TaskID]proto.Addr) error {
	if err := ctx.Err(); err != nil {
		for _, meta := range metas {
			alloc[meta.Task] = member
		}
		return err
	}
	if len(metas) == 0 {
		return nil // no Cancel: one naming no task would end the workflow
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
