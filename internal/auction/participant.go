package auction

import (
	"time"

	"openwf/internal/clock"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
)

// Participant is the Auction Participation Manager of the execution
// subsystem (§4.2): it encapsulates the interactions and state tracking a
// host needs to bid in task auctions. For every call for bids it compares
// the task's required time, location, and service with the host's own
// capabilities and availability; if the host can commit, it places a firm
// bid and reserves the schedule slot until the bid's deadline.
//
// A participant serves every allocation session of the community at
// once; it is safe for concurrent use. It keeps no bid bookkeeping of its
// own: a firm bid is exactly a hold in the schedule manager's calendar,
// keyed by (workflow, task) and expiring at the bid's deadline. Slot
// conflicts between sessions are arbitrated there (first-hold-wins); the
// losing call for bids gets a clean per-task decline.
type Participant struct {
	clk      clock.Clock
	services *service.Manager
	sched    *schedule.Manager
	// bidWindow is how long the participant gives the auction manager
	// to decide; its firm bid (and schedule reservation) expires after
	// this window.
	bidWindow time.Duration
}

// DefaultBidWindow is the deadline participants give auction managers.
const DefaultBidWindow = 200 * time.Millisecond

// DefaultCommitLease is how long an awarded commitment survives without a
// lease refresh from its initiator. Generous relative to bid windows and
// execution spans: a live initiator refreshes leases far more often,
// while a dead one stops and the slot returns to the pool one lease
// later.
const DefaultCommitLease = 5 * time.Minute

// NewParticipant wires a participant to its host's service and schedule
// managers. bidWindow ≤ 0 selects DefaultBidWindow. The host passes 0;
// the parameter stays only because the frozen benchmark module's probes
// pass it too, and it goes with the [benchmark] re-baseline.
func NewParticipant(clk clock.Clock, services *service.Manager, sched *schedule.Manager, bidWindow time.Duration) *Participant {
	if clk == nil {
		clk = clock.New()
	}
	if bidWindow <= 0 {
		bidWindow = DefaultBidWindow
	}
	return &Participant{clk: clk, services: services, sched: sched, bidWindow: bidWindow}
}

// HandleCallForBidsBatch answers a call for bids: one reply carrying a
// firm Bid for every task this host can commit to and a per-task decline
// for the rest. A bid reserves the schedule slot (including travel time)
// until the bid's deadline; a repeated solicitation for a task already
// reserved (the engine replanning) refreshes that deadline. All schedule
// reservations are taken atomically under one schedule-manager lock
// acquisition (HoldBatch), so a competing session cannot interleave
// between two tasks of the batch; infeasible tasks decline individually
// without disturbing the rest. The whole batch shares one bid deadline. A
// task declined for want of its service drops the hold an earlier call of
// the same workflow took on it, as a refused award does: the auctioneer
// sends no Cancel after a decline. A decline reads only whether the
// calendar refused (HoldResult.Held), never why, so the calendar's verdicts
// stay values, in an array on this stack for a batch of up to 8 tasks; the
// reply's lists are sized from the batch once.
//
// The batch goes to the calendar as it came while every task is capable
// and none takes its service's location; the first that does not starts a
// copy. A bid reads its service's specialization afresh.
func (p *Participant) HandleCallForBidsBatch(workflow string, batch proto.CallForBidsBatch) proto.BidBatch {
	var reply proto.BidBatch
	var copied []proto.TaskMeta // nil while the batch stands as sent
	for i, meta := range batch.Metas {
		located, ok := p.locate(workflow, meta)
		if copied == nil && (!ok || located.Location != meta.Location) {
			copied = append(make([]proto.TaskMeta, 0, len(batch.Metas)), batch.Metas[:i]...)
		}
		if !ok {
			reply.Declines = appendSized(reply.Declines, meta.Task, len(batch.Metas))
		} else if copied != nil {
			copied = append(copied, located)
		}
	}
	capable := batch.Metas
	if copied != nil {
		capable = copied
	}
	if len(capable) == 0 {
		return reply
	}
	deadline := p.clk.Now().Add(p.bidWindow)
	var buf [8]schedule.HoldResult
	results := p.sched.HoldBatch(buf[:0], workflow, capable, deadline)
	count := p.services.Count()
	for i := range results {
		if !results[i].Held() {
			// The slot belongs to an earlier session (schedule.ErrSlotBusy)
			// or is otherwise uncommittable: a clean decline, never a stale
			// reservation.
			reply.Declines = appendSized(reply.Declines, capable[i].Task, len(batch.Metas))
			continue
		}
		desc, _ := p.services.CanPerform(capable[i].Task)
		reply.Bids = appendSized(reply.Bids, proto.Bid{
			Task:            capable[i].Task,
			ServicesOffered: count,
			Specialization:  desc.Specialization,
			Deadline:        deadline,
		}, len(results))
	}
	return reply
}

// HoldAward takes the holds a held award (proto.Award.Hold) is about to
// commit, as a call for bids naming its tasks would, and returns their
// deadline for the host's sweep — zero when it took none. No bid is
// placed: the award's sender decided from memory and waits for verdicts,
// not bids. Each task stands alone from here on — HandleAward commits or
// refuses it whatever the others get — so each takes its own hold (Hold),
// in award order, and nothing is gathered into a batch. A hold the
// workflow already has stays as it is, for HandleAward to commit.
func (p *Participant) HoldAward(workflow string, award proto.Award) (deadline time.Time) {
	at := p.clk.Now().Add(p.bidWindow)
	held := p.hold(workflow, award.Meta, at)
	for _, meta := range award.More {
		held = p.hold(workflow, meta, at) || held
	}
	if !held {
		return time.Time{}
	}
	return at
}

// hold takes one held award task's hold until deadline, reporting whether
// it took one.
func (p *Participant) hold(workflow string, meta proto.TaskMeta, deadline time.Time) bool {
	located, ok := p.locate(workflow, meta)
	if !ok {
		return false
	}
	_, err := p.sched.Hold(workflow, located, deadline)
	return err == nil
}

// locate checks meta against the host's services: a task it offers none
// for drops the hold an earlier call of the workflow took on it and is
// not ok; a service pinned to a location imposes it on the commitment when
// the task itself does not require one, sharing the descriptor's point.
func (p *Participant) locate(workflow string, meta proto.TaskMeta) (proto.TaskMeta, bool) {
	desc, ok := p.services.CanPerform(meta.Task)
	if !ok {
		p.sched.Release(workflow, meta.Task)
		return meta, false
	}
	if meta.Location == nil {
		meta.Location = desc.Location
	}
	return meta, true
}

// appendSized appends v to s, giving s room for n on first use.
func appendSized[T any](s []T, v T, n int) []T {
	if s == nil {
		s = make([]T, 0, n)
	}
	return append(s, v)
}

// HandleAward converts the reservation of award.Meta into a leased
// commitment. It returns the commitment (for execution registration) and
// the verdict on the task. An award without a live hold — the bid
// window expired before the award arrived — is refused even when the
// slot is still free: under leases the slot already returned to the
// pool and may back a rival session's fresh hold, so a stale award must
// never silently commit. The refusal (Verdict.OK=false) cancels the
// award back to the auctioneer, which replans the task. Every refusal
// leaves the slot free: the auctioneer sends no Cancel after one, so a
// hold kept here would block rival sessions until the bid window lapsed.
func (p *Participant) HandleAward(workflow string, award proto.Award) (schedule.Commitment, proto.Verdict) {
	meta := award.Meta
	if _, ok := p.services.CanPerform(meta.Task); !ok {
		p.sched.Release(workflow, meta.Task)
		return schedule.Commitment{}, proto.Verdict{
			Task: meta.Task, OK: false, Reason: "service no longer offered",
		}
	}
	c, err := p.sched.CommitHeld(workflow, meta.Task, p.clk.Now().Add(DefaultCommitLease))
	if err != nil {
		return schedule.Commitment{}, proto.Verdict{
			Task: meta.Task, OK: false, Reason: err.Error(),
		}
	}
	return c, proto.Verdict{Task: meta.Task, OK: true}
}

// HandleLeaseRefresh extends the leases of the listed tasks' commitments
// and reports back the tasks whose commitments are gone (lease already
// expired and swept, or canceled): the initiator repairs those.
func (p *Participant) HandleLeaseRefresh(workflow string, lr proto.LeaseRefresh) proto.LeaseRefreshAck {
	lease := p.clk.Now().Add(DefaultCommitLease)
	var ack proto.LeaseRefreshAck
	for _, task := range lr.Tasks {
		if err := p.sched.RefreshCommitLease(workflow, task, lease); err != nil {
			ack.Missing = append(ack.Missing, task)
		}
	}
	return ack
}

// HandleCancel revokes the listed tasks (replanning compensation, a lost
// auction): each one's commitment and any leftover hold are dropped; with
// no tasks, the workflow's.
func (p *Participant) HandleCancel(workflow string, c proto.Cancel) {
	if len(c.Tasks) == 0 {
		p.sched.DropWorkflow(workflow)
		return
	}
	for _, task := range c.Tasks {
		p.sched.Release(workflow, task)
		p.sched.Remove(workflow, task)
	}
}

// ReleaseSession drops every reservation of one workflow's bid session and
// returns how many schedule holds were released. No product caller; kept
// for the frozen benchmark, goes with the [benchmark] re-baseline.
func (p *Participant) ReleaseSession(workflow string) int { return p.sched.ReleaseWorkflow(workflow) }
