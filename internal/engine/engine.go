// Package engine implements the construction subsystem (§4): the Workflow
// Initiator and Workflow Manager. The Workflow Manager maintains one
// workspace per open workflow, issues queries to discover knowhow
// (Fragment Messages) and capabilities (Service Feasibility Messages),
// constructs the workflow with the coloring algorithm of internal/core,
// and delegates allocation to the Auction Manager. The routing plan that
// lets execution proceed in a fully decentralized manner rides on the
// awards: every task is decided before the first award goes out.
//
// The engine also implements the failure feedback loop sketched in §5.1:
// when a task cannot be allocated, it is marked infeasible, awarded tasks
// are compensated (canceled), and the workflow is reconstructed from the
// remaining knowledge.
//
// The paper's initiator "communicates with each member of the community in
// turn"; the engine does so once per member per TTL. A sweep asks the
// members its host knows nothing about to describe themselves, the host's
// index (internal/discovery) remembers the answers beyond the session, and
// every later sweep of every session — collection rounds, replans, the
// feasibility check, the call for bids, repair — goes to the members that
// can answer it. One routing step (Manager.route) serves all of them. The
// index also keeps the fragments the members returned, so a collection
// round (communityView.FragmentsConsuming) sends a query only to the routed
// members that have not answered its labels yet and takes the others'
// answers from memory; once every round's labels have been answered a
// session constructs without a fragment query. Full collection
// (Incremental off) is the ablation that asks everyone everything and
// neither reads nor writes that memory. What keeps a stale memory from
// costing a plan is stated once, in internal/discovery.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/clock"
	"openwf/internal/core"
	"openwf/internal/discovery"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// Messenger is what the engine needs from its host: identity, the current
// community view, and request/response messaging through the abstract
// communications layer. internal/host provides the implementation.
type Messenger interface {
	// Self returns this host's address.
	Self() proto.Addr
	// Members returns the current community view, including self.
	Members() []proto.Addr
	// Call sends a request and waits for the correlated reply. The
	// context cancels the wait promptly; timeout is the clock-paced
	// reply bound (meaningful under simulated clocks).
	Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error)
	// Send transmits a one-way message.
	Send(ctx context.Context, to proto.Addr, workflow string, body proto.Body) error
	// Clock returns the host clock.
	Clock() clock.Clock
}

// Observer receives construction and auction events from the engine.
// Every field is optional; nil callbacks are skipped. Callbacks run
// synchronously on the engine's goroutine and must be fast and
// non-blocking; they may be invoked from several construction goroutines
// at once and must be safe for concurrent use.
type Observer struct {
	// ConstructionDone fires after each successful construction — a
	// session's or a plan repair's — with the construction metrics
	// (explored region, collection rounds, …).
	ConstructionDone func(workflowID string, result core.Result)
	// TaskDecided fires once per task at the end of each try of an
	// allocation, with the task's verdict: its confirmed winner, or empty
	// when nobody took it (no offer, a refused or lost award). A try that
	// ends in an error reports no verdict.
	TaskDecided func(workflowID string, task model.TaskID, winner proto.Addr)
	// Replanned fires when failure feedback (§5.1) — a session's or a
	// plan repair's — excludes tasks and reconstructs; attempt counts
	// from 1 in each.
	Replanned func(workflowID string, attempt int, excluded []model.TaskID)
	// Repaired fires when a mid-execution plan repair completes: dead
	// lists the executors declared failed, reallocated the tasks that
	// were re-auctioned onto surviving hosts.
	Repaired func(workflowID string, dead []proto.Addr, reallocated []model.TaskID)
}

// Config tunes the engine.
type Config struct {
	// Incremental selects on-demand fragment collection (the paper's
	// implementation strategy). When false, the engine gathers every
	// fragment in the community up front (§3.1's simplifying
	// assumption, kept as an ablation baseline).
	Incremental bool
	// Feasibility enables service-feasibility filtering during
	// construction (tasks nobody can perform are excluded).
	Feasibility bool
	// ParallelQuery issues community queries to all members at once
	// instead of pairwise in turn. The paper observes that processing
	// the responses still costs time linear in the community size; the
	// ablation benchmark quantifies how much of the pairwise latency is
	// recovered.
	ParallelQuery bool
	// CallTimeout bounds each community query; hosts that do not answer
	// in time are treated as unreachable for that query.
	CallTimeout time.Duration
	// LeaseRefreshInterval is how often an initiator refreshes the
	// commitment leases behind an in-flight execution (awards are
	// leased, not permanent — see internal/auction). The refresher
	// doubles as the failure detector: an executor that cannot be
	// reached, or that reports a lease it no longer holds, triggers
	// incremental plan repair against the surviving community. Zero
	// selects the default; negative disables refreshing (leases then
	// lapse unless execution finishes within one lease).
	LeaseRefreshInterval time.Duration
	// StartDelay is how far in the future the first execution window is
	// placed, leaving time for allocation to finish.
	StartDelay time.Duration
	// TaskWindow is the length of each task's execution window; windows
	// are staggered by topological order so one host can serve several
	// tasks of the same workflow.
	TaskWindow time.Duration
	// MaxReplans bounds the failure-feedback loop: how many times one
	// session, or one plan repair, reconstructs without the tasks that
	// stayed unallocatable.
	MaxReplans int
	// WindowRetries is how many times a failed allocation is retried
	// with postponed execution windows before the engine gives up on
	// the task and reconstructs. Concurrent workflows compete for the
	// same hosts' schedules (§4.2); a task that cannot be scheduled now
	// may fit a later window.
	WindowRetries int
	// Constraints are the richer specification options (§5.1) applied
	// to every construction from this engine.
	Constraints spec.Constraints
	// Observer receives construction and auction events.
	Observer Observer
}

// DefaultConfig returns the configuration used by the evaluation: the
// incremental strategy with feasibility filtering.
func DefaultConfig() Config {
	return Config{
		Incremental:          true,
		Feasibility:          true,
		CallTimeout:          5 * time.Second,
		LeaseRefreshInterval: time.Minute,
		StartDelay:           time.Second,
		TaskWindow:           time.Second,
		MaxReplans:           3,
		WindowRetries:        2,
	}
}

// Plan is the outcome of Initiate: the constructed workflow and the
// allocation of each of its tasks (the paper's measured unit of work ends
// here — "all tasks of the resulting workflow have been successfully
// allocated to some host").
type Plan struct {
	// WorkflowID identifies the open-workflow instance.
	WorkflowID string
	// Spec is the specification that was satisfied.
	Spec spec.Spec
	// Workflow is the constructed workflow.
	Workflow *model.Workflow
	// Initiator is the host that allocated the plan: the routes riding on
	// its awards return goal labels and failures to it.
	Initiator proto.Addr
	// Allocations maps every task to its awarded host.
	Allocations map[model.TaskID]proto.Addr
	// Metas holds the auction metadata per task (windows, locations).
	Metas map[model.TaskID]proto.TaskMeta
	// Construction carries the construction metrics.
	Construction core.Result
	// Replans is how many failure-feedback iterations were needed.
	Replans int
}

// ErrAllocationFailed is wrapped in errors returned when allocation could
// not complete even after replanning.
var ErrAllocationFailed = errors.New("allocation failed")

// Manager is a host's workflow engine (Workflow Manager + Initiator). It
// multiplexes any number of concurrent allocation sessions (Initiate /
// InitiateBatch calls) and executions; each session's state lives in its
// own allocSession (see session.go) so sessions never interfere.
type Manager struct {
	net Messenger
	cfg Config
	// idx is what the community's members have told this host about
	// themselves; it routes every sweep and outlives every session.
	idx *discovery.Index

	mu         sync.Mutex
	seq        int
	executions map[string]*execution

	// inFlight counts the allocation sessions between newSession and
	// endSession (see InFlight).
	inFlight atomic.Int64
	// replans and repairs count the events Observer.Replanned and
	// Observer.Repaired report (see Replans and Repairs).
	replans, repairs atomic.Int64
}

// execution tracks an in-flight Execute call on the initiator.
type execution struct {
	plan *Plan
	// outs are the plan workflow's goal labels (Workflow.Out), kept so a
	// label's arrival copies nothing; a repair re-homing tasks resets them.
	outs      []model.LabelID
	goals     map[model.LabelID][]byte
	failures  []string
	done      chan struct{}
	finished  bool
	completed bool
	// finishedTasks records the tasks of the plan's workflow known to have
	// finished, from lease refreshes; every other task of it is still to
	// run.
	finishedTasks map[model.TaskID]struct{}
	// triggers retains the initiator-supplied trigger data so a repair
	// can re-inject the workflow sources to re-allocated consumers.
	triggers map[model.LabelID][]byte
}

// NewManager returns an engine bound to its host messenger. It routes by
// the messenger's index where the messenger keeps one (internal/host
// does, and feeds it advertisements), by one of its own otherwise.
func NewManager(net Messenger, cfg Config) *Manager {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultConfig().CallTimeout
	}
	if cfg.StartDelay <= 0 {
		cfg.StartDelay = DefaultConfig().StartDelay
	}
	if cfg.TaskWindow <= 0 {
		cfg.TaskWindow = DefaultConfig().TaskWindow
	}
	if cfg.LeaseRefreshInterval == 0 {
		cfg.LeaseRefreshInterval = DefaultConfig().LeaseRefreshInterval
	}
	idx := discovery.New(net.Clock(), 0)
	if h, ok := net.(interface{ Discovery() *discovery.Index }); ok {
		idx = h.Discovery()
	}
	return &Manager{
		net: net, cfg: cfg, idx: idx,
		executions: make(map[string]*execution),
	}
}

// Initiate runs the full construction-and-allocation pipeline for a new
// problem specification and returns the allocated plan. This is the
// operation the paper's evaluation times. Cancellation of ctx aborts
// community queries, bid solicitation and awards promptly, returning
// ctx.Err(). Any number of Initiate calls may run concurrently on one
// engine; each gets its own isolated allocation session (see
// InitiateBatch for the deterministic-ID batch form).
func (m *Manager) Initiate(ctx context.Context, s spec.Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sess := m.newSession(s)
	defer m.endSession()
	return m.run(ctx, sess, nil)
}

// AllocateWorkflow allocates a pre-specified workflow without any
// construction — the classical (CiAN-style) mode in which a thoughtfully
// designed workflow already exists and only distributed allocation and
// execution remain. It serves as the baseline that isolates the cost of
// dynamic construction, and lets the engine double as a conventional
// MANET workflow engine.
func (m *Manager) AllocateWorkflow(ctx context.Context, w *model.Workflow, s spec.Spec) (*Plan, error) {
	if w == nil || w.NumTasks() == 0 {
		return nil, fmt.Errorf("empty workflow")
	}
	sess := m.newSession(s)
	defer m.endSession()
	return m.run(ctx, sess, w)
}

// communityView is one construction's window on the community's knowhow
// and capabilities. It implements core.KnowledgeSource by querying the
// members' Fragment Managers pairwise (the initiating host communicates
// with each member of the community in turn — time linear in hosts for a
// host's first sweep, in the members that can contribute for every later
// one) and core.FeasibilityChecker from what the host's index knows, with
// Service Feasibility Messages to the members it does not.
type communityView struct {
	m    *Manager
	wfID string
	// members restricts the queried community (plan repair consults only
	// the survivors); nil means every current member.
	members []proto.Addr
	// known is the buffer Recall appends the remembered fragments to,
	// reused round after round: construct merges a round's fragments
	// before it asks the next. routed, the members a round was routed to,
	// and offered, which of a feasibility round's tasks someone offers,
	// are reused the same way.
	known   []*model.Fragment
	routed  []proto.Addr
	offered []bool
}

// FragmentsConsuming implements core.KnowledgeSource: the routed members
// that have answered these labels before answer from the host's memory, and
// only the others are sent the query. The labels are construction scratch,
// so the query gets its own copy: one still queued behind a stalled write
// after the call gave up must not see the next round's frontier.
func (cv *communityView) FragmentsConsuming(ctx context.Context, labels []model.LabelID) ([]*model.Fragment, error) {
	members, describe := cv.m.route(cv.routed[:0], cv.members, labels, nil, 0)
	if !describe {
		cv.routed = members // never the candidates themselves (discovery.Index.Route)
	}
	if len(members) == 0 {
		return nil, nil // every member is known; none consumes these labels
	}
	known, ask, at := cv.m.idx.Recall(cv.known[:0], members, labels)
	cv.known = known
	if len(ask) == 0 {
		return known, nil // nothing about these labels is left to ask anyone
	}
	query := proto.FragmentQuery{Labels: slices.Clone(labels), Describe: describe}
	return cv.m.sweepFragments(ctx, cv.wfID, ask, query, known, at)
}

// sweepFragments sends one fragment query to members (nil means the whole
// community) and gathers the fragments of the replies in member order; what
// the replies say — the member's description, its answer to an incremental
// query — goes into the index. known are fragments the index recalled for
// members that were not asked, at[i] how many of them go before members[i]'s
// reply (discovery.Index.Recall); a full collection passes neither.
func (m *Manager) sweepFragments(ctx context.Context, wfID string, members []proto.Addr, query proto.FragmentQuery, known []*model.Fragment, at []int) ([]*model.Fragment, error) {
	replies, err := m.queryMembers(ctx, wfID, query, members)
	if err != nil {
		return nil, err
	}
	var out []*model.Fragment
	i, spliced := 0, 0
	for _, reply := range replies {
		fr, ok := reply.body.(proto.FragmentReply)
		if !ok {
			return nil, fmt.Errorf("fragment query to %q: unexpected reply %T", reply.from, reply.body)
		}
		if at != nil {
			for members[i] != reply.from {
				i++ // members that did not reply
			}
			out = append(out, known[spliced:at[i]]...)
			spliced = at[i]
		}
		out = append(out, fr.Fragments...)
		m.idx.Learn(reply.from, fr.Capabilities, query.Labels, fr.Fragments)
	}
	return append(out, known[spliced:]...), nil
}

// memberReply pairs a community reply with its sender.
type memberReply struct {
	from proto.Addr
	body proto.Body
}

// route is the one routing step behind every community sweep: it appends
// to dst the members of candidates (nil = the full community view) worth
// sending a fragment query for labels or — labels nil — a call for bids
// for tasks, and reports whether the sweep should ask them to describe
// themselves. The index decides member by member (see internal/discovery).
//
// rot rotates the visiting order; a session's auctions pass its ordinal so
// concurrent sessions start their solicitation at different members. The
// full view is rotated first and the index rules members out second, so
// the members that are solicited keep the order a broadcast would have
// visited them in — and plans stay what a broadcast would have produced.
func (m *Manager) route(dst, candidates []proto.Addr, labels []model.LabelID, tasks []model.TaskID, rot int) (members []proto.Addr, describe bool) {
	return m.idx.Route(dst, rotate(m.community(candidates), rot), labels, tasks)
}

// community resolves a member restriction: nil means the full current view.
func (m *Manager) community(members []proto.Addr) []proto.Addr {
	if members == nil {
		return m.net.Members()
	}
	return members
}

// rotate returns members starting at index by mod len(members).
func rotate(members []proto.Addr, by int) []proto.Addr {
	n := len(members)
	if n < 2 {
		return members
	}
	if by %= n; by == 0 {
		return members
	}
	return append(append(make([]proto.Addr, 0, n), members[by:]...), members[:by]...)
}

// Workers is how much one host does at once: how many workflows' inbound
// envelopes its dispatcher handles concurrently (internal/host), how many
// community queries a ParallelQuery sweep keeps in flight — a host never has
// more out than it could itself serve inbound — and how many Initiates a
// daemon runs when its configuration does not say (internal/daemon). Session
// work waits on auctions, schedules and peers rather than on the CPU, so the
// value is deliberately larger than typical core counts.
const Workers = 8

// queryMembers sends one query to every listed member (nil means the full
// community view; plan repair queries only the survivors) and returns the
// replies in member order. One loop asks: without ParallelQuery the caller
// runs it alone, pairwise in turn; with it up to Workers goroutines — the
// caller is the first — share it, each adopting the next member as its call
// completes (a 64-member community does not spawn 64 goroutines). Unreachable
// members are skipped; their knowledge and capabilities are simply
// unavailable to this construction. Context cancellation aborts the round
// and is returned (a canceled requester must not mistake "no replies" for
// "no knowledge").
func (m *Manager) queryMembers(ctx context.Context, wfID string, query proto.Body, members []proto.Addr) ([]memberReply, error) {
	members = m.community(members)
	bound := 1
	if m.cfg.ParallelQuery {
		bound = min(Workers, len(members))
	}
	replies := make([]memberReply, len(members))
	var next atomic.Int64
	ask := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(members) {
				return
			}
			if body, err := m.net.Call(ctx, members[i], wfID, query, m.cfg.CallTimeout); err == nil {
				replies[i] = memberReply{from: members[i], body: body}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < bound; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ask()
		}()
	}
	ask()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	answered := replies[:0]
	for _, r := range replies {
		if r.body != nil {
			answered = append(answered, r)
		}
	}
	return answered, nil
}

// fullCollection is the knowledge source of the ablation that gathers the
// community's entire knowhow up front (§3.1's simplifying assumption): its
// first round asks every member for everything — Fragment Managers treat a
// nil label filter as "everything" (see internal/host) — and, everyone being
// asked anyway, to describe itself; no later round has anything to add. It
// neither reads nor writes the remembered knowhow.
type fullCollection struct {
	view  *communityView
	asked bool
}

// FragmentsConsuming implements core.KnowledgeSource.
func (fc *fullCollection) FragmentsConsuming(ctx context.Context, _ []model.LabelID) ([]*model.Fragment, error) {
	if fc.asked {
		return nil, nil
	}
	fc.asked = true
	cv := fc.view
	return cv.m.sweepFragments(ctx, cv.wfID, cv.members, proto.FragmentQuery{Describe: true}, nil, nil)
}

// InfeasibleTasks implements core.FeasibilityChecker.
func (cv *communityView) InfeasibleTasks(ctx context.Context, tasks []model.TaskID) ([]model.TaskID, error) {
	if cap(cv.offered) < len(tasks) {
		cv.offered = make([]bool, len(tasks))
	}
	offered := cv.offered[:len(tasks)]
	clear(offered)
	if ask := cv.m.idx.Capable(cv.m.community(cv.members), tasks, offered); len(ask) > 0 {
		// Like a fragment query's labels, the tasks are lent for the call.
		query := proto.FeasibilityQuery{Tasks: slices.Clone(tasks)}
		replies, err := cv.m.queryMembers(ctx, cv.wfID, query, ask)
		if err != nil {
			return nil, err
		}
		for _, reply := range replies {
			fr, ok := reply.body.(proto.FeasibilityReply)
			if !ok {
				return nil, fmt.Errorf("feasibility query to %q: unexpected reply %T", reply.from, reply.body)
			}
			for i, t := range tasks {
				offered[i] = offered[i] || slices.Contains(fr.Capable, t)
			}
		}
	}
	var infeasible []model.TaskID
	for i, t := range tasks {
		if !offered[i] {
			infeasible = append(infeasible, t)
		}
	}
	return infeasible, nil
}
