// Package proto defines the wire protocol of the open workflow management
// system: the message bodies exchanged between hosts over the abstract
// communications layer (the Fragment Messages, Service Feasibility
// Messages, Auction Messages, and Inter-service Messages of the paper's
// architecture, Fig. 3), plus the envelope framing and the hand-rolled
// binary codec (codec.go) shared by every transport.
//
// Each body has one layout, every field always written; a list is a count
// and its elements. Changing a layout bumps the codec's wire version, and
// a frame of any other version is rejected.
package proto

import (
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
)

// Addr identifies a host (participant device) in the community. With the
// in-memory transport it is an opaque name; with the TCP transport a
// registry maps it to a socket address.
type Addr string

// Envelope frames one message: routing metadata plus a typed body.
type Envelope struct {
	// From and To are the sending and receiving hosts.
	From, To Addr
	// ReqID correlates a reply with its request. Requests carry a
	// nonzero ReqID chosen by the caller; replies echo it.
	ReqID uint64
	// Workflow identifies the open-workflow instance (workspace) the
	// message belongs to; empty for messages outside any workflow.
	Workflow string
	// Body is the typed payload; exactly one of the message structs
	// below.
	Body Body
}

// Body is implemented by every message body. Its unexported methods are
// the body's wire layout (codec.go), so a body without a tag or an encoder
// does not compile.
type Body interface {
	// Kind returns a short name for logging and dispatch.
	Kind() string
	// kind returns the tag that opens the body on the wire.
	kind() byte
	// encode writes the body's fields, in struct order.
	encode(encoder)
}

// --- Fragment Messages (knowhow discovery) ---

// FragmentQuery asks a host's Fragment Manager for fragments containing a
// task that consumes any of the given labels (the exploration frontier).
type FragmentQuery struct {
	Labels []model.LabelID
	// Describe asks the host to attach its complete capability set to the
	// reply. An initiator sets it on sweeps that reach a member it knows
	// nothing about; with the set in hand it contacts that member again
	// only for queries the set intersects (DESIGN.md §13).
	Describe bool
}

// Kind implements Body.
func (FragmentQuery) Kind() string { return "fragment-query" }

// FragmentReply returns the matching fragments.
type FragmentReply struct {
	Fragments []*model.Fragment
	// Capabilities answers FragmentQuery.Describe: the host's complete
	// capability set — what it would advertise, both lists sorted. Nil
	// when no description was asked for (or the peer does not describe
	// itself); a host with nothing to offer describes itself with an
	// empty set, which is not nil.
	Capabilities *Advertise
}

// Kind implements Body.
func (FragmentReply) Kind() string { return "fragment-reply" }

// --- Service Feasibility Messages (capability discovery) ---

// FeasibilityQuery asks a host's Service Manager which of the given tasks
// it offers a service for.
type FeasibilityQuery struct {
	Tasks []model.TaskID
}

// Kind implements Body.
func (FeasibilityQuery) Kind() string { return "feasibility-query" }

// FeasibilityReply lists the tasks the replying host can perform.
type FeasibilityReply struct {
	Capable []model.TaskID
}

// Kind implements Body.
func (FeasibilityReply) Kind() string { return "feasibility-reply" }

// --- Auction Messages (allocation) ---

// TaskMeta is the per-task metadata the auction manager computes for
// allocating and executing a workflow task (§3.2): identity, data flow,
// execution window, and required location. It is 128 bytes, the most a Go
// map keeps inline, so a plan's metas (engine.Plan.Metas) cost no
// allocation per task.
type TaskMeta struct {
	Task    model.TaskID
	Mode    model.Mode
	Inputs  []model.LabelID
	Outputs []model.LabelID
	// Start and End bound the execution window.
	Start, End time.Time
	// Location is the place the service must be performed, nil for
	// anywhere. The point is shared by every copy of the meta: replace
	// it, never write through it.
	Location *space.Point
}

// Bid is a firm commitment offer for a task, carried in a BidBatch. Firm
// means the bidder must honor the bid if awarded before Deadline; it
// reserves the necessary schedule slot until then.
type Bid struct {
	Task model.TaskID
	// ServicesOffered is how many services the bidder offers in total;
	// the auctioneer prefers hosts offering fewer, preserving the
	// community's resource pool.
	ServicesOffered int
	// Specialization ranks how specialized the bidder is for this task
	// (higher is better); a tiebreaker after ServicesOffered.
	Specialization float64
	// Deadline is when the bidder's hold on the slot lapses; an award
	// arriving later is refused. The auctioneer does not read it: it
	// decides when the last member has answered.
	Deadline time.Time
}

// CallForBidsBatch solicits bids for every task of one allocation session
// from a participant in a single round trip: one call carries all of the
// session's task metas, and the participant answers each task with a bid
// or a per-task decline in one BidBatch reply — one round per member
// (DESIGN.md §9). A session whose initiator remembers one possible bidder
// for every task sends none: its awards hold as they commit (Award.Hold).
type CallForBidsBatch struct {
	Metas []TaskMeta
}

// Kind implements Body.
func (CallForBidsBatch) Kind() string { return "call-for-bids-batch" }

// BidBatch answers a CallForBidsBatch: firm bids for the tasks the
// participant can commit to and per-task declines for the rest. Every
// task of the soliciting batch appears in exactly one of the two lists.
type BidBatch struct {
	Bids []Bid
	// Declines lists the tasks the participant will not bid on. (The
	// paper's participants simply stay silent; an explicit decline lets
	// the auctioneer finalize as soon as the whole community has answered,
	// which never changes the outcome — no further bids can arrive.)
	Declines []model.TaskID
}

// Kind implements Body.
func (BidBatch) Kind() string { return "bid-batch" }

// Award allocates to the winning bidder, who converts its reservations
// into commitments, every task it won in one round of decisions: one
// message per winner, answered by one AwardAck naming the tasks it refused
// (DESIGN.md §9). The tasks are Meta followed by More: the one body left
// with a head and a rest, because the frozen benchmark module builds
// Award{Meta: m}. It becomes one list when that module is re-baselined.
type Award struct {
	Meta TaskMeta
	// More are the further tasks the same winner is awarded with Meta.
	More []TaskMeta
	// Hold asks the winner to take its holds, as a call for bids would,
	// before it commits: the initiator decided from memory, knowing one
	// possible bidder per task, and sent no call. A task the winner cannot
	// hold is refused like any award without a hold (DESIGN.md §9).
	Hold bool
	// Routes say where the outputs of every awarded task go, to the
	// executors decided with it or kept by a plan repair: the plan rides on
	// the award, and the sender is the initiator.
	Routes []Route
}

// Kind implements Body.
func (Award) Kind() string { return "award" }

// Verdict confirms (OK) or refuses one awarded task. A task is refused
// when its hold is gone — the bid's deadline passed before the award
// arrived — or the service was withdrawn meanwhile, and Reason says which.
// Only refusals travel (AwardAck.Refused), as task and reason: a decoded
// verdict is never OK.
type Verdict struct {
	Task   model.TaskID
	OK     bool
	Reason string
}

// AwardAck answers an Award by naming the tasks the winner refused, each
// at most once, in the award's order; every task of the award it does not
// name is confirmed, and a refusal binds only its own task. An ack that
// confirms everything carries a nil list, which boxes into a Body without
// an allocation.
type AwardAck struct {
	Refused []Verdict
}

// Kind implements Body.
func (AwardAck) Kind() string { return "award-ack" }

// Cancel revokes previously awarded tasks of one host, or the holds of
// its losing bids (compensation during the auction and replanning after a
// failure): one message per host, whatever the number of tasks. With no
// Tasks it is the release an initiator sends when execution ends: drop
// everything held for the workflow.
type Cancel struct {
	Tasks []model.TaskID
}

// Kind implements Body.
func (Cancel) Kind() string { return "cancel" }

// --- Plan distribution and Inter-service Messages (execution) ---

// Plan gives an executor new routing segments for its commitments in one
// workflow, whose routes rode on their awards: a plan repair re-homed a
// task they feed, so a running task re-routes and a finished one
// re-publishes. One message per executor (DESIGN.md §9), acknowledged with
// an Ack.
type Plan struct {
	Segments []PlanSegment
}

// Kind implements Body. It is the kind string traces and metrics key a plan
// request by, paired with "ack".
func (Plan) Kind() string { return "plan-segment" }

// PlanSegment is the routing information for one commitment: where its
// outputs must go and whom to tell if it fails.
type PlanSegment struct {
	Task model.TaskID
	// Initiator is the host coordinating the workflow; an executor whose
	// task fails tells it with a TaskDone.
	Initiator Addr
	// Routes send each output of the task to the hosts that need it.
	Routes []Route
}

// Route sends one label to one host: the executor of a task that consumes
// it, or the initiator for a goal label. A label with several consuming
// executors has a route to each. Award and PlanSegment share the form, one
// flat list, so routing costs a decoder one slice.
type Route struct {
	Label model.LabelID
	To    Addr
}

// LabelTransfer carries a produced label (condition plus optional data)
// from the executor of a producing task to the executor of a consuming
// task — the fully decentralized data flow of the execution phase.
type LabelTransfer struct {
	Label model.LabelID
	Data  []byte
	// Producer is the host whose service produced the label.
	Producer Addr
}

// Kind implements Body.
func (LabelTransfer) Kind() string { return "label-transfer" }

// TaskDone notifies the initiator that a committed task failed, with Err
// saying why. It is a request, answered by an Ack: the executor asks again
// until one comes or the run is dropped. A success is not reported: the
// workflow is complete when its goals arrive, and the refresh learns which
// tasks finished (LeaseRefreshAck.Finished).
type TaskDone struct {
	Task model.TaskID
	Err  string
}

// Kind implements Body.
func (TaskDone) Kind() string { return "task-done" }

// Ack is the generic acknowledgment for requests with no richer reply
// (plans, failures).
type Ack struct{}

// Kind implements Body.
func (Ack) Kind() string { return "ack" }

// LeaseRefresh extends the leases on an executor's commitments for one
// workflow. The initiating engine sends it periodically while the
// execution is in flight; a commitment whose lease is never refreshed
// expires and is swept, returning the slot to the pool — the mechanism
// that heals calendars after an initiator dies mid-execution.
type LeaseRefresh struct {
	Tasks []model.TaskID
}

// Kind implements Body.
func (LeaseRefresh) Kind() string { return "lease-refresh" }

// LeaseRefreshAck answers a LeaseRefresh: Missing lists the tasks whose
// commitments no longer exist on this host (lease already expired and
// swept, or canceled), and the initiator repairs those tasks. Finished
// lists the named tasks whose run on this host has finished: a success
// sends no TaskDone, so this is how the initiator learns it.
type LeaseRefreshAck struct {
	Missing  []model.TaskID
	Finished []model.TaskID
}

// Kind implements Body.
func (LeaseRefreshAck) Kind() string { return "lease-refresh-ack" }

// --- Capability advertisements (discovery) ---

// Advertise announces a host's current capability set to the community:
// the labels its fragments consume (the keys a frontier FragmentQuery
// would match) and the tasks it offers services for. Members broadcast
// it periodically on a seeded clock-timed cadence; initiators fold it
// into their capability index (internal/discovery) so solicitation
// sweeps contact only hosts whose advertisements intersect the open
// labels. Sent one-way for the periodic refresh, or as a request
// (nonzero ReqID) when an initiator pulls the community's capabilities
// to warm a cold index.
type Advertise struct {
	// Labels are the labels consumed by the host's fragments.
	Labels []model.LabelID
	// Tasks are the tasks the host offers services for.
	Tasks []model.TaskID
}

// Kind implements Body.
func (Advertise) Kind() string { return "advertise" }

// AdvertiseAck answers a pulled Advertise with the receiver's own
// capability set — anti-entropy: one pull round trip refreshes both
// directions, which is what lets a restarted or cold initiator
// repopulate its index in O(members) calls.
type AdvertiseAck struct {
	// Labels are the labels consumed by the replying host's fragments.
	Labels []model.LabelID
	// Tasks are the tasks the replying host offers services for.
	Tasks []model.TaskID
}

// Kind implements Body.
func (AdvertiseAck) Kind() string { return "advertise-ack" }

// IsRequest reports whether the body opens a Call round trip (a request
// expecting a correlated reply). Transports use it for round-trip
// accounting; see transport.Stats. Advertise is deliberately absent even
// though a pulled Advertise is answered: the Calls counter measures
// solicitation round trips per Initiate, and discovery maintenance
// traffic — amortized background refreshes and one-time index warming —
// is accounted separately (community.DiscoveryStats).
func IsRequest(b Body) bool {
	switch b.(type) {
	case FragmentQuery, FeasibilityQuery, CallForBidsBatch, Award, Plan, LeaseRefresh, TaskDone:
		return true
	}
	return false
}

// IsReply reports whether the body answers a request: a host routes it,
// by its correlation ID, to the Call waiting for it. A body that is
// neither a request nor a reply is one-way.
func IsReply(b Body) bool {
	switch b.(type) {
	case FragmentReply, FeasibilityReply, BidBatch, AwardAck, LeaseRefreshAck, AdvertiseAck, Ack:
		return true
	}
	return false
}
