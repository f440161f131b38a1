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
	"bytes"
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

// Body is implemented by every message body.
type Body interface {
	// Kind returns a short name for logging and dispatch.
	Kind() string
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
// execution window, and required location.
type TaskMeta struct {
	Task    model.TaskID
	Mode    model.Mode
	Inputs  []model.LabelID
	Outputs []model.LabelID
	// Start and End bound the execution window.
	Start, End time.Time
	// Location is the place the service must be performed, if any.
	Location    space.Point
	HasLocation bool
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
	// Deadline is when the bidder needs a decision by; the auctioneer
	// finalizes the allocation no later than the tentative winner's
	// deadline.
	Deadline time.Time
}

// CallForBidsBatch solicits bids for every task of one allocation session
// from a participant in a single round trip: one call carries all of the
// session's task metas, and the participant answers each task with a bid
// or a per-task decline in one BidBatch reply — one round per member
// (DESIGN.md §9).
type CallForBidsBatch struct {
	Metas []TaskMeta
	// Sole names the tasks of Metas nobody else is asked to bid for: the
	// initiator's memory of its community knows the recipient as the only
	// member offering them, so their auction has one possible winner and
	// the award rides on the call. The recipient commits such a task as it
	// bids for it, and its Bid in the reply is the confirmed award; a task
	// it cannot commit is declined like any other (DESIGN.md §9).
	Sole []model.TaskID
}

// Kind implements Body.
func (CallForBidsBatch) Kind() string { return "call-for-bids-batch" }

// BidBatch answers a CallForBidsBatch: firm bids for the tasks the
// participant can commit to and per-task declines for the rest. Every
// task of the soliciting batch appears in exactly one of the two lists. A
// bid for one of the call's Sole tasks is a commitment already made.
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
// message per winner, answered by one AwardAck carrying a verdict per task
// (DESIGN.md §9). The tasks are Meta followed by More: the one body left
// with a head and a rest, because the frozen benchmark module builds
// Award{Meta: m}. It becomes one list when that module is re-baselined.
type Award struct {
	Meta TaskMeta
	// More are the further tasks the same winner is awarded with Meta.
	More []TaskMeta
}

// Kind implements Body.
func (Award) Kind() string { return "award" }

// Verdict confirms (OK) or refuses one awarded task. A task is refused
// when its hold is gone — the bid's deadline passed before the award
// arrived — or the service was withdrawn meanwhile, and Reason says which.
type Verdict struct {
	Task   model.TaskID
	OK     bool
	Reason string
}

// AwardAck answers an Award with one verdict per task, in the award's
// order; a refusal binds only its own task.
type AwardAck struct {
	Verdicts []Verdict
}

// Kind implements Body.
func (AwardAck) Kind() string { return "award-ack" }

// Cancel revokes a previously awarded task (compensation during
// replanning after a failure). With no Task it is the release an initiator
// sends when execution ends: drop everything held for the workflow.
type Cancel struct {
	Task model.TaskID
}

// Kind implements Body.
func (Cancel) Kind() string { return "cancel" }

// --- Plan distribution and Inter-service Messages (execution) ---

// Plan gives an executor the routing segments of its commitments in one
// workflow. The initiator distributes them once allocation completes, one
// message per executor (DESIGN.md §9), acknowledged with an Ack.
type Plan struct {
	Segments []PlanSegment
}

// Kind implements Body. It is the kind string traces and metrics key a plan
// request by, paired with "ack".
func (Plan) Kind() string { return "plan-segment" }

// PlanSegment is the routing information for one commitment: where each
// input comes from and where each output must go.
type PlanSegment struct {
	Task model.TaskID
	// Initiator is the host coordinating the workflow; executors send
	// it TaskDone notifications.
	Initiator Addr
	// InputSources maps each required input label to the host that will
	// produce it (the initiator itself for triggering labels).
	InputSources map[model.LabelID]Addr
	// OutputSinks maps each output label to the hosts that need it
	// (consumer executors, plus the initiator for goal labels).
	OutputSinks map[model.LabelID][]Addr
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

// TaskDone notifies the initiator that a committed task finished (or
// failed, with Err set).
type TaskDone struct {
	Task model.TaskID
	Err  string
}

// Kind implements Body.
func (TaskDone) Kind() string { return "task-done" }

// Ack is the generic acknowledgment for requests with no richer reply
// (plans).
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
// swept, or canceled). The initiator repairs those tasks.
type LeaseRefreshAck struct {
	Missing []model.TaskID
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

// EnvelopeBatch is a frame-level coalescing body: one wire frame carrying
// several queued envelopes to the same destination, so a burst of
// messages on one link pays the per-frame overhead (framing, syscall,
// modeled MAC latency) once. The transport layer builds one in its sender
// and splits it in transport.Deliver, in order, preserving the per-link
// FIFO guarantee, so no handler and no protocol component ever sees one.
// Batches never nest.
type EnvelopeBatch struct {
	Envelopes []Envelope
}

// Kind implements Body.
func (EnvelopeBatch) Kind() string { return "envelope-batch" }

// IsRequest reports whether the body opens a Call round trip (a request
// expecting a correlated reply). Transports use it for round-trip
// accounting; see transport.Stats. Advertise is deliberately absent even
// though a pulled Advertise is answered: the Calls counter measures
// solicitation round trips per Initiate, and discovery maintenance
// traffic — amortized background refreshes and one-time index warming —
// is accounted separately (community.DiscoveryStats).
func IsRequest(b Body) bool {
	switch b.(type) {
	case FragmentQuery, FeasibilityQuery, CallForBidsBatch, Award, Plan, LeaseRefresh:
		return true
	}
	return false
}

// Encode serializes an envelope with the wire codec (the hand-rolled
// binary format documented in codec.go and DESIGN.md §7).
func Encode(env Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeTo(&buf, env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeTo appends the wire encoding of env to buf. Transports call this
// with a pooled buffer: the encode path performs no allocations of its
// own, so the per-envelope marshal cost is pure byte-writing into the
// recycled backing array.
func EncodeTo(buf *bytes.Buffer, env Envelope) error {
	return encodeBinary(buf, env)
}

// Decode deserializes an envelope encoded by Encode. The returned
// envelope shares no memory with data: callers may reuse the input buffer
// for the next frame immediately.
func Decode(data []byte) (Envelope, error) {
	return decodeBinary(data)
}
