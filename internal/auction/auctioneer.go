// Package auction implements task allocation (§3.2): a CiAN-style auction
// in which the workflow initiator acts as auction manager, soliciting firm
// bids for every task from all community members. Participants bid only on
// work they can commit to (capability, schedule, travel, willingness);
// bids carry ranking information and a response deadline. The auction
// manager keeps a tentative winner per task, re-evaluates as bids arrive,
// and finalizes no later than the tentative winner's deadline — preferring
// participants that offer fewer services, since scheduling a more capable
// participant removes more services from the community's resource pool.
// A task is decided once every member has answered for it, or at the
// first answer at or after its tentative winner's deadline. The engine
// asks the members one blocking call at a time and counts a member whose
// call fails as declining, so every auction ends with its sweep.
//
// The Auctioneer and Participant types are passive state machines: the
// engine and host drive them with messages, which keeps the protocol
// logic deterministic and testable without a network.
package auction

import (
	"fmt"
	"sort"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
)

// Outbound is a message the caller must transmit on the auctioneer's
// behalf.
type Outbound struct {
	To   proto.Addr
	Body proto.Body
}

// Decision finalizes one task's auction.
type Decision struct {
	Task model.TaskID
	// Winner is the awarded host; empty when the auction failed (every
	// member declined).
	Winner proto.Addr
	// Meta is the decided task's metadata, as solicited: what the engine
	// awards the winner.
	Meta proto.TaskMeta
	// Losers are the hosts whose firm bids were not awarded, sorted.
	// Each still reserves its schedule slot; the engine releases them
	// promptly (a Cancel) instead of letting the reservations block
	// other sessions until the bid windows expire.
	Losers []proto.Addr
}

// Failed reports whether the decision is a failed allocation.
func (d Decision) Failed() bool { return d.Winner == "" }

// taskAuction tracks one task's in-flight auction.
type taskAuction struct {
	meta       proto.TaskMeta
	responded  map[proto.Addr]struct{}
	bidders    map[proto.Addr]struct{}
	bestBid    proto.Bid
	bestBidder proto.Addr
	hasBest    bool
	decided    bool
	winner     proto.Addr
}

// Auctioneer allocates the tasks of one workflow. It is per-session
// state: each allocation session owns a fresh instance per attempt, so N
// concurrent Initiates on one host never share an auctioneer. A single
// instance is not safe for concurrent use; its owning session drives it
// from one goroutine.
type Auctioneer struct {
	members []proto.Addr
	tasks   map[model.TaskID]*taskAuction
	open    int
}

// NewAuctioneer prepares auctions for the given tasks among the given
// community members (which include the initiating host itself — all hosts
// may act as participants).
func NewAuctioneer(members []proto.Addr, metas []proto.TaskMeta) (*Auctioneer, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("auction: no community members")
	}
	a := &Auctioneer{
		members: append([]proto.Addr(nil), members...),
		tasks:   make(map[model.TaskID]*taskAuction, len(metas)),
	}
	for _, meta := range metas {
		if _, dup := a.tasks[meta.Task]; dup {
			return nil, fmt.Errorf("auction: duplicate task %q", meta.Task)
		}
		a.tasks[meta.Task] = &taskAuction{
			meta:      meta,
			responded: make(map[proto.Addr]struct{}, len(members)),
		}
		a.open++
	}
	return a, nil
}

// StartBatched returns the calls for bids to send: exactly one
// CallForBidsBatch per member, carrying every task's metadata in sorted
// task order, so the engine communicates pairwise with each participant
// (the paper's linear-in-hosts communication pattern) in one round trip
// per member (DESIGN.md §9).
func (a *Auctioneer) StartBatched() []Outbound {
	taskIDs := a.sortedTaskIDs()
	metas := make([]proto.TaskMeta, 0, len(taskIDs))
	for _, id := range taskIDs {
		metas = append(metas, a.tasks[id].meta)
	}
	out := make([]Outbound, 0, len(a.members))
	for _, m := range a.members {
		out = append(out, Outbound{To: m, Body: proto.CallForBidsBatch{Metas: metas}})
	}
	return out
}

// HandleBidBatch processes one member's batched reply: every bid and
// per-task decline it carries, in reply order. It returns all decisions
// that became final, exactly as the equivalent sequence of HandleBid and
// HandleDecline calls would.
func (a *Auctioneer) HandleBidBatch(from proto.Addr, batch proto.BidBatch, now time.Time) []Decision {
	var out []Decision
	for _, bid := range batch.Bids {
		out = append(out, a.HandleBid(from, bid, now)...)
	}
	for _, task := range batch.Declines {
		out = append(out, a.HandleDecline(from, task, now)...)
	}
	return out
}

func (a *Auctioneer) sortedTaskIDs() []model.TaskID {
	ids := make([]model.TaskID, 0, len(a.tasks))
	for id := range a.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// HandleBid processes a firm bid. A repeated bid from the same host
// updates the deadline of its earlier bid (the paper allows forcing a
// decision this way). It returns any decisions that became final because
// the whole community has now responded, evaluated at the given time.
func (a *Auctioneer) HandleBid(from proto.Addr, bid proto.Bid, now time.Time) []Decision {
	ta, ok := a.tasks[bid.Task]
	if !ok || ta.decided {
		return nil
	}
	ta.responded[from] = struct{}{}
	if ta.bidders == nil {
		ta.bidders = make(map[proto.Addr]struct{})
	}
	ta.bidders[from] = struct{}{}
	if ta.hasBest && ta.bestBidder == from {
		// Deadline update for an existing bid; ranking is unchanged
		// because bids are firm.
		ta.bestBid.Deadline = bid.Deadline
	} else if !ta.hasBest || betterBid(bid, from, ta.bestBid, ta.bestBidder) {
		// The tentative allocation is continually re-evaluated as new
		// bids arrive.
		ta.bestBid = bid
		ta.bestBidder = from
		ta.hasBest = true
	}
	return a.maybeFinalize(ta, now)
}

// HandleDecline processes an explicit decline of one task. It returns any
// decisions that became final.
func (a *Auctioneer) HandleDecline(from proto.Addr, task model.TaskID, now time.Time) []Decision {
	ta, ok := a.tasks[task]
	if !ok || ta.decided {
		return nil
	}
	ta.responded[from] = struct{}{}
	return a.maybeFinalize(ta, now)
}

// maybeFinalize decides a task when no better bid can arrive (everyone
// responded) or the tentative winner's deadline has been reached.
func (a *Auctioneer) maybeFinalize(ta *taskAuction, now time.Time) []Decision {
	if ta.decided {
		return nil
	}
	allResponded := len(ta.responded) >= len(a.members)
	deadlineDue := ta.hasBest && !now.Before(ta.bestBid.Deadline)
	if !allResponded && !deadlineDue {
		return nil
	}
	if !ta.hasBest && !allResponded {
		return nil
	}
	ta.decided = true
	a.open--
	if !ta.hasBest {
		return []Decision{{Task: ta.meta.Task, Meta: ta.meta}}
	}
	ta.winner = ta.bestBidder
	var losers []proto.Addr
	for addr := range ta.bidders {
		if addr != ta.bestBidder {
			losers = append(losers, addr)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
	return []Decision{{
		Task:   ta.meta.Task,
		Winner: ta.bestBidder,
		Meta:   ta.meta,
		Losers: losers,
	}}
}

// Done reports whether every task has been decided.
func (a *Auctioneer) Done() bool { return a.open == 0 }

// betterBid implements the selection criterion: prefer the participant
// providing fewer services (preserving the community's resource pool),
// then higher specialization, then the lexicographically smaller address
// for determinism.
func betterBid(b proto.Bid, bAddr proto.Addr, cur proto.Bid, curAddr proto.Addr) bool {
	if b.ServicesOffered != cur.ServicesOffered {
		return b.ServicesOffered < cur.ServicesOffered
	}
	if b.Specialization != cur.Specialization {
		return b.Specialization > cur.Specialization
	}
	return bAddr < curAddr
}
