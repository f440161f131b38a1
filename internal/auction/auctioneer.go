// Package auction implements task allocation (§3.2): a CiAN-style auction
// in which the workflow initiator acts as auction manager, soliciting firm
// bids for every task from all community members. Participants bid only on
// work they can commit to (capability, schedule, travel, willingness);
// bids carry ranking information and a response deadline. The paper's
// manager re-evaluates a tentative winner as bids arrive and decides no
// later than that winner's deadline, because bids may still be in flight.
// Here the engine asks every member every open task in one blocking call
// at a time and counts a member whose call fails as declining, so no bid
// can arrive after the last answer: the Auctioneer collects the answers
// and decides every task once, when the last member has answered —
// preferring participants that offer fewer services, since scheduling a
// more capable participant removes more services from the community's
// resource pool.
//
// The Auctioneer and Participant types are passive state machines: the
// engine and host drive them with messages, which keeps the protocol
// logic deterministic and testable without a network.
package auction

import (
	"cmp"
	"fmt"
	"slices"
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

// lot is one task's bids so far: the best one and every bidder.
type lot struct {
	best    proto.Bid
	winner  proto.Addr // "" while nobody has bid
	bidders []proto.Addr
}

// Auctioneer allocates the tasks of one workflow. It is per-session
// state: each allocation session owns a fresh instance per attempt, so N
// concurrent Initiates on one host never share an auctioneer. A single
// instance is not safe for concurrent use; its owning session drives it
// from one goroutine.
type Auctioneer struct {
	members  []proto.Addr
	answered []bool // by member position
	left     int    // members yet to answer
	metas    []proto.TaskMeta
	lots     []lot        // by position in metas
	bidders  []proto.Addr // the lots' bidders: a window of len(members) each
}

// NewAuctioneer prepares auctions for the given tasks among the given
// community members (which include the initiating host itself — all hosts
// may act as participants).
func NewAuctioneer(members []proto.Addr, metas []proto.TaskMeta) (*Auctioneer, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("auction: no community members")
	}
	sorted := slices.Clone(metas)
	slices.SortFunc(sorted, func(a, b proto.TaskMeta) int { return cmp.Compare(a.Task, b.Task) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Task == sorted[i-1].Task {
			return nil, fmt.Errorf("auction: duplicate task %q", sorted[i].Task)
		}
	}
	return &Auctioneer{
		members:  slices.Clone(members),
		answered: make([]bool, len(members)),
		left:     len(members),
		metas:    sorted,
		lots:     make([]lot, len(sorted)),
	}, nil
}

// StartBatched returns the calls for bids to send: exactly one
// CallForBidsBatch per member, carrying every task's metadata in sorted
// task order, so the engine communicates pairwise with each participant
// (the paper's linear-in-hosts communication pattern) in one round trip
// per member (DESIGN.md §9). Every call shares one body.
func (a *Auctioneer) StartBatched() []Outbound {
	var body proto.Body = proto.CallForBidsBatch{Metas: a.metas}
	out := make([]Outbound, len(a.members))
	for i, m := range a.members {
		out[i] = Outbound{To: m, Body: body}
	}
	return out
}

// HandleBidBatch records member from's answer: a bid for a task counts, a
// task the answer does not bid for is declined whether or not Declines
// names it. A second answer from a member, an answer from a non-member and
// a bid for a task not auctioned change nothing. When the last member has
// answered it returns one Decision per task, in task order; before, nil.
// The time argument is not read: it stays because the frozen benchmark
// module calls this signature.
func (a *Auctioneer) HandleBidBatch(from proto.Addr, batch proto.BidBatch, _ time.Time) []Decision {
	i := slices.Index(a.members, from)
	if i < 0 || a.answered[i] {
		return nil
	}
	a.answered[i] = true
	a.left--
	for _, bid := range batch.Bids {
		t, ok := slices.BinarySearchFunc(a.metas, bid.Task, func(m proto.TaskMeta, id model.TaskID) int { return cmp.Compare(m.Task, id) })
		if !ok {
			continue
		}
		l := &a.lots[t]
		if l.bidders == nil {
			n := len(a.members)
			if a.bidders == nil {
				a.bidders = make([]proto.Addr, len(a.lots)*n)
			}
			// Capped, so one lot's Losers never grows into the next's.
			l.bidders = a.bidders[t*n : t*n : (t+1)*n]
		}
		l.bidders = append(l.bidders, from)
		if l.winner == "" || betterBid(bid, from, l.best, l.winner) {
			l.best, l.winner = bid, from
		}
	}
	if a.left > 0 {
		return nil
	}
	ds := make([]Decision, len(a.metas))
	for t, meta := range a.metas {
		l := &a.lots[t]
		losers := slices.DeleteFunc(l.bidders, func(b proto.Addr) bool { return b == l.winner })
		slices.Sort(losers)
		ds[t] = Decision{Task: meta.Task, Winner: l.winner, Meta: meta, Losers: losers}
	}
	return ds
}

// Done reports whether every member has answered.
func (a *Auctioneer) Done() bool { return a.left == 0 }

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
