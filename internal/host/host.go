// Package host assembles one participant device: it wires the fragment,
// service, schedule, auction-participation, and execution managers of the
// execution subsystem together with the workflow engine of the
// construction subsystem, all behind a single transport endpoint. Per the
// paper's design principles (§4.2), every component — local or remote —
// is reached uniformly through the communications layer, and a host
// carries only the components appropriate to its capabilities (a host
// with no fragments or services simply answers queries with empty
// results).
package host

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/discovery"
	"openwf/internal/engine"
	"openwf/internal/exec"
	"openwf/internal/fragment"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/trace"
	"openwf/internal/transport"
)

// Config describes one host.
type Config struct {
	// Addr is the host's community address.
	Addr proto.Addr
	// Clock paces the host (default: wall clock).
	Clock clock.Clock
	// Mobility is the host's movement model (default: static at origin).
	Mobility space.Mobility
	// Prefs expresses scheduling willingness.
	Prefs schedule.Preferences
	// Engine configures this host's workflow engine (used when the host
	// initiates workflows).
	Engine engine.Config
	// Fragments is the host's initial knowhow.
	Fragments []*model.Fragment
	// Services are the host's initial capabilities.
	Services []service.Registration
	// Trace, when non-nil, records every message the host sends or
	// receives.
	Trace trace.Recorder
	// Discovery, when non-nil, runs the advertiser: the host pushes its
	// capability set to every member on a jittered cadence, so the
	// members' indexes hold it without asking and treat a full TTL of
	// silence as this host's death (internal/discovery). Every host keeps
	// an index and answers advertisements either way.
	Discovery *DiscoveryConfig
}

// DiscoveryConfig tunes the host's advertiser.
type DiscoveryConfig struct {
	// TTL is how long a capability set stays fresh in this host's index
	// (default discovery.DefaultTTL). An advertising member silent for a
	// full TTL is presumed dead and excluded from solicitation sweeps.
	TTL time.Duration
	// RefreshEvery is the advertiser's push cadence (default TTL/3, so
	// a live member survives two lost refreshes before lapsing).
	RefreshEvery time.Duration
	// Seed seeds the advertiser's cadence jitter, desynchronizing the
	// community's refresh bursts deterministically.
	Seed int64
}

// advertiseCallTimeout bounds each pull round trip of AdvertiseNow.
const advertiseCallTimeout = 5 * time.Second

// Host is one participant device.
type Host struct {
	addr  proto.Addr
	clk   clock.Clock
	trace trace.Recorder
	// ctx is the host's root context, canceled on Close; it bounds
	// replies and other host-originated sends that have no caller
	// context of their own.
	ctx    context.Context
	cancel context.CancelFunc

	Fragments   *fragment.Manager
	Services    *service.Manager
	Schedule    *schedule.Manager
	Exec        *exec.Manager
	Participant *auction.Participant
	Engine      *engine.Manager

	// dispatch routes inbound envelopes to per-workflow session workers
	// so concurrent allocation sessions multiplex over one host.
	dispatch *dispatcher

	// callTimeout bounds each call exec makes: its engine's CallTimeout.
	callTimeout time.Duration

	// index is the host's memory of its community, which its engine
	// routes by and fills; refreshEvery is the advertiser's cadence, zero
	// when the host runs none.
	index        *discovery.Index
	refreshEvery time.Duration
	// ad is the advertisement capabilities last built, served again while
	// the managers serve the same snapshots.
	ad atomic.Pointer[proto.Advertise]

	mu       sync.Mutex
	endpoint transport.Endpoint
	members  []proto.Addr
	nextReq  uint64
	pending  map[uint64]*call
	calls    []*call // free list, under Call's recycle rule
	closed   bool
	// adRng jitters the advertiser cadence; adTimer is the pending
	// refresh tick. Both are guarded by mu.
	adRng   *rand.Rand
	adTimer clock.Timer
	// sweepTimer is the one expiry timer, pending while sweepAt is nonzero
	// (see armSweep). Both are guarded by mu.
	sweepTimer clock.Timer
	sweepAt    time.Time
}

// New builds a host from its configuration. The host is inert until
// Attach connects it to a transport endpoint.
func New(cfg Config) (*Host, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("host: empty address")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.New()
	}
	h := &Host{
		addr:      cfg.Addr,
		clk:       clk,
		trace:     cfg.Trace,
		Fragments: fragment.NewManager(),
		Services:  service.NewManager(clk),
		pending:   make(map[uint64]*call),
	}
	h.ctx, h.cancel = context.WithCancel(context.Background()) //openwf:allow-background lifecycle root for the host's dispatcher and invocations, canceled by Close
	h.Schedule = schedule.NewManager(clk, cfg.Mobility, cfg.Prefs)
	h.Participant = auction.NewParticipant(clk, h.Services, h.Schedule, 0)
	h.Exec = exec.NewManager(cfg.Addr, clk, h.Services, h.Schedule.Mobility(), h.sendExec, h.handOver)
	ttl := discovery.DefaultTTL
	if dc := cfg.Discovery; dc != nil {
		if dc.TTL > 0 {
			ttl = dc.TTL
		}
		h.refreshEvery = dc.RefreshEvery
		if h.refreshEvery <= 0 {
			h.refreshEvery = ttl / 3
		}
		h.adRng = rand.New(rand.NewSource(dc.Seed))
	}
	h.index = discovery.New(clk, ttl)
	h.Engine = engine.NewManager(h, cfg.Engine)
	h.callTimeout = cfg.Engine.CallTimeout
	if h.callTimeout <= 0 {
		h.callTimeout = engine.DefaultConfig().CallTimeout
	}
	h.dispatch = newDispatcher(h.process, engine.Workers)

	for _, f := range cfg.Fragments {
		if err := h.Fragments.Add(f); err != nil {
			return nil, fmt.Errorf("host %q: %w", cfg.Addr, err)
		}
	}
	for _, reg := range cfg.Services {
		if err := h.Services.Register(reg); err != nil {
			return nil, fmt.Errorf("host %q: %w", cfg.Addr, err)
		}
	}
	return h, nil
}

// Attach connects the host to its transport endpoint. The endpoint must
// have been created with h.Handle as its handler. Attaching also arms
// the periodic advertiser where the host runs one (its first tick lands
// after one jittered refresh interval, by which time the community view
// is installed).
func (h *Host) Attach(ep transport.Endpoint) {
	h.mu.Lock()
	h.endpoint = ep
	h.mu.Unlock()
	h.scheduleAdvertise()
}

// SetMembers installs the community view (all hosts, including self).
// The paper assumes a stable, mutually reachable community during one
// construction; membership changes take effect on the next query.
func (h *Host) SetMembers(members []proto.Addr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.members = append([]proto.Addr(nil), members...)
}

// Close detaches the host, failing outstanding calls and canceling the
// host's root context (which interrupts in-flight service invocations).
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	ep := h.endpoint
	for id, c := range h.pending {
		close(c.ch)
		delete(h.pending, id)
	}
	if h.adTimer != nil {
		h.adTimer.Stop()
		h.adTimer = nil
	}
	if h.sweepTimer != nil {
		h.sweepTimer.Stop()
	}
	h.mu.Unlock()
	h.cancel()
	h.dispatch.close()
	h.Exec.Close()
	if ep != nil {
		return ep.Close()
	}
	return nil
}

// --- engine.Messenger implementation ---

var _ engine.Messenger = (*Host)(nil)

// Self implements engine.Messenger.
func (h *Host) Self() proto.Addr { return h.addr }

// Clock implements engine.Messenger.
func (h *Host) Clock() clock.Clock { return h.clk }

// Members implements engine.Messenger. SetMembers only ever replaces the
// slice, never writes into it, so every caller shares it; the capacity is
// capped, so a caller's append copies instead of writing past the end.
func (h *Host) Members() []proto.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.members); n > 0 {
		return h.members[:n:n]
	}
	return []proto.Addr{h.addr}
}

// Send implements engine.Messenger (one-way message).
func (h *Host) Send(ctx context.Context, to proto.Addr, workflow string, body proto.Body) error {
	return h.sendEnvelope(ctx, to, proto.Envelope{Workflow: workflow, Body: body})
}

func (h *Host) sendEnvelope(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	h.mu.Lock()
	ep := h.endpoint
	closed := h.closed
	h.mu.Unlock()
	if closed || ep == nil {
		return fmt.Errorf("host %q: not attached", h.addr)
	}
	h.record(trace.Send, to, env)
	return ep.Send(ctx, to, env)
}

// sendExec is the execution manager's SendFunc, for envelopes to other
// hosts. A failure is a request: it returns nil once the initiator acks
// it, and otherwise not before the call's timeout, so exec's next try
// waits out a peer that refuses at once.
func (h *Host) sendExec(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	if _, ok := env.Body.(proto.TaskDone); !ok {
		return h.sendEnvelope(ctx, to, env)
	}
	due := h.clk.Now().Add(h.callTimeout)
	reply, err := h.Call(ctx, to, env.Workflow, env.Body, h.callTimeout)
	if _, ok := reply.(proto.Ack); ok {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("task-done to %q: unexpected reply %T", to, reply)
	}
	select {
	case <-h.clk.After(due.Sub(h.clk.Now())):
	case <-ctx.Done():
	}
	return err
}

// handOver is the execution manager's LocalFunc: a label a run here
// published to this host, which the runs here have already taken, or a
// failure for this host's own initiator, goes to the engine without
// crossing the link. The trace records it sent and received, as it would
// one that crossed.
func (h *Host) handOver(workflow string, lt proto.LabelTransfer, failure proto.TaskDone) {
	if failure.Task != "" {
		h.recordKind(trace.Send, h.addr, workflow, failure.Kind())
		h.recordKind(trace.Recv, h.addr, workflow, failure.Kind())
		h.Engine.OnTaskDone(workflow, failure)
		return
	}
	h.recordKind(trace.Send, h.addr, workflow, lt.Kind())
	h.recordKind(trace.Recv, h.addr, workflow, lt.Kind())
	h.Engine.OnLabelTransfer(workflow, lt)
}

// record emits a trace event for env if tracing is enabled.
func (h *Host) record(dir trace.Dir, peer proto.Addr, env proto.Envelope) {
	if h.trace != nil {
		h.recordKind(dir, peer, env.Workflow, env.Body.Kind())
	}
}

// recordKind emits a trace event for a message of kind if tracing is
// enabled.
func (h *Host) recordKind(dir trace.Dir, peer proto.Addr, workflow, kind string) {
	if h.trace == nil {
		return
	}
	h.trace.Record(trace.Event{
		At:       h.clk.Now(),
		Host:     h.addr,
		Dir:      dir,
		Peer:     peer,
		Kind:     kind,
		Workflow: workflow,
	})
}

// call is one outstanding request. Its channel gets the reply, the timeout
// marker (an envelope with no body) or Close's close, from whichever takes
// the call out of pending. timer, the reply bound, calls expire, which is
// built with the call; the timer is made on the call's first use and
// re-armed on every later one.
type call struct {
	id     uint64
	ch     chan proto.Envelope
	expire func()
	timer  clock.Timer
}

// Call implements engine.Messenger: request/response with correlation.
// The context cancels the wait promptly (returning ctx.Err()); timeout is
// the clock-paced bound on the reply (which keeps per-query deadlines
// meaningful under a simulated clock, where wall-clock context deadlines
// would not advance). The bound is a timer stopped when Call returns, so an
// answered call leaves nothing on the clock.
//
// Calls are recycled, timer and all. One goes back on the free list only
// when nothing else can still send to it: Call received the reply or forgot
// the call itself, and stopped the timer before it fired — so the timer a
// recycled call is re-armed with (clock.Timer.Reset) has no callback left
// to run. A call that timed out or was closed by Close is left to the
// collector.
func (h *Host) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.closed || h.endpoint == nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("host %q: not attached", h.addr)
	}
	c := h.newCallLocked()
	h.nextReq++
	c.id = h.nextReq
	h.pending[c.id] = c
	ep := h.endpoint
	h.mu.Unlock()

	env := proto.Envelope{ReqID: c.id, Workflow: workflow, Body: body}
	h.record(trace.Send, to, env)
	if err := ep.Send(ctx, to, env); err != nil {
		h.forget(c)
		return nil, err
	}
	if c.timer == nil {
		c.timer = h.clk.AfterFunc(timeout, c.expire)
	} else {
		c.timer.Reset(timeout)
	}
	select {
	case reply, ok := <-c.ch:
		switch {
		case !ok:
			c.timer.Stop()
			return nil, fmt.Errorf("host %q: closed while calling %q", h.addr, to)
		case reply.Body == nil: // the timeout marker: the timer has fired
			return nil, fmt.Errorf("call to %q (%s) timed out after %v", to, body.Kind(), timeout)
		}
		h.recycle(c, true)
		return reply.Body, nil
	case <-ctx.Done():
		h.recycle(c, h.forget(c))
		return nil, ctx.Err()
	}
}

// newCallLocked takes a call off the free list, or makes one.
func (h *Host) newCallLocked() *call {
	if n := len(h.calls); n > 0 {
		c := h.calls[n-1]
		h.calls = h.calls[:n-1]
		return c
	}
	c := &call{ch: make(chan proto.Envelope, 1)}
	c.expire = func() {
		if h.forget(c) {
			c.ch <- proto.Envelope{}
		}
	}
	return c
}

// forget takes the call out of pending, reporting whether it was there:
// then no reply, timeout or Close can reach it any more.
func (h *Host) forget(c *call) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.pending[c.id]
	delete(h.pending, c.id)
	return ok
}

// recycle stops the call's timer and frees the call if it is mine — its
// Call received the reply or forgot it — and the timer had not fired.
func (h *Host) recycle(c *call, mine bool) {
	if c.timer.Stop() && mine {
		h.mu.Lock()
		h.calls = append(h.calls, c)
		h.mu.Unlock()
	}
}

// Handle is the host's transport handler. Correlated replies are routed
// straight to their waiting Call (a non-blocking channel send); every
// other envelope is dispatched to its workflow's session worker, so the
// traffic of N concurrent workflows is handled by up to engine.Workers
// goroutines at once while each single workflow still sees its messages
// strictly in arrival order. The transport may keep invoking Handle
// sequentially (the in-memory network's endpoint pump does); the
// dispatcher is what turns that serial feed into per-session
// concurrency.
func (h *Host) Handle(env proto.Envelope) {
	h.record(trace.Recv, env.From, env)
	if proto.IsReply(env.Body) {
		h.routeReply(env)
	} else {
		h.dispatch.enqueue(env)
	}
}

// ActiveSessions returns how many workflow sessions currently have
// inbound traffic queued or in flight on this host's dispatcher.
func (h *Host) ActiveSessions() int { return h.dispatch.ActiveSessions() }

// process handles one dispatched envelope on a session worker: it serves
// queries and feeds one-way messages to the execution subsystem.
func (h *Host) process(env proto.Envelope) {
	switch b := env.Body.(type) {
	case proto.FragmentQuery:
		var frags []*model.Fragment
		if b.Labels == nil {
			frags = h.Fragments.All() // full-collection baseline
		} else {
			frags = h.Fragments.Consuming(b.Labels)
		}
		reply := proto.FragmentReply{Fragments: frags}
		if b.Describe {
			reply.Capabilities = h.capabilities()
		}
		h.reply(env, reply)

	case proto.FeasibilityQuery:
		h.reply(env, proto.FeasibilityReply{Capable: h.Services.Capable(b.Tasks)})

	case proto.CallForBidsBatch:
		h.reply(env, h.bid(env.Workflow, b))

	case proto.Award:
		// A held award takes its holds as a call for bids would, with no
		// bid to answer; then each task stands alone: committed and
		// registered, or refused with its slot freed, whatever the others
		// do. The routes riding on the award are every task's plan, its
		// sender the initiator. The ack names the refusals only, so one
		// that confirms everything builds no list.
		if b.Hold {
			if at := h.Participant.HoldAward(env.Workflow, b); !at.IsZero() {
				h.armSweep(at)
			}
		}
		var refused []proto.Verdict
		if v := h.award(env.Workflow, b.Meta, env.From, b.Routes); !v.OK {
			refused = append(refused, v)
		}
		for _, meta := range b.More {
			if v := h.award(env.Workflow, meta, env.From, b.Routes); !v.OK {
				refused = append(refused, v)
			}
		}
		h.reply(env, proto.AwardAck{Refused: refused})

	case proto.LeaseRefresh:
		ack := h.Participant.HandleLeaseRefresh(env.Workflow, b)
		ack.Finished = h.Exec.Finished(env.Workflow, b.Tasks)
		h.reply(env, ack)

	case proto.Cancel:
		// Each named task is a revoked award or a lost bid; no task is the
		// end of the workflow: calendar entries, runs in any state and
		// labels all go.
		h.Participant.HandleCancel(env.Workflow, b)
		h.Exec.Cancel(env.Workflow, b.Tasks...)

	case proto.Plan:
		for _, seg := range b.Segments {
			h.Exec.SetPlan(env.Workflow, seg)
		}
		h.reply(env, proto.Ack{})

	case proto.LabelTransfer:
		h.Exec.OnLabel(env.Workflow, b)
		h.Engine.OnLabelTransfer(env.Workflow, b)

	case proto.TaskDone:
		// exec sends it as a request; a one-way one has no call to answer.
		h.Engine.OnTaskDone(env.Workflow, b)
		if env.ReqID != 0 {
			h.reply(env, proto.Ack{})
		}

	case proto.Advertise:
		h.index.ObserveAdvertise(env.From, b.Labels, b.Tasks)
		// A pulled advertisement (nonzero ReqID) is answered with this
		// host's own capability set — anti-entropy, so one pull round
		// trip refreshes both directions. One-way refreshes get no
		// reply.
		if env.ReqID != 0 {
			ad := h.capabilities()
			h.reply(env, proto.AdvertiseAck{Labels: ad.Labels, Tasks: ad.Tasks})
		}
	}
}

// award converts one awarded task's hold into a commitment registered for
// execution, and returns the verdict on it. initiator and routes are the
// task's plan, which rode on the award.
func (h *Host) award(workflow string, meta proto.TaskMeta, initiator proto.Addr, routes []proto.Route) proto.Verdict {
	c, v := h.Participant.HandleAward(workflow, proto.Award{Meta: meta})
	if v.OK {
		h.Exec.Register(workflow, c, proto.PlanSegment{Task: meta.Task, Initiator: initiator, Routes: routes})
	}
	return v
}

// bid answers a call for bids. Holds are the only way onto the calendar,
// so arming the sweep here and for a held award's holds keeps it ahead;
// awards and refreshes only move deadlines later.
func (h *Host) bid(workflow string, b proto.CallForBidsBatch) proto.BidBatch {
	resp := h.Participant.HandleCallForBidsBatch(workflow, b)
	if len(resp.Bids) > 0 {
		h.armSweep(resp.Bids[0].Deadline)
	}
	return resp
}

// armSweep makes sure the sweep runs no later than just past at. The host
// keeps one expiry timer: a deadline at or after the armed one waits for
// that sweep, which re-arms at whatever lapses next.
func (h *Host) armSweep(at time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || (!h.sweepAt.IsZero() && !at.Before(h.sweepAt)) {
		return
	}
	if h.sweepTimer != nil {
		h.sweepTimer.Stop()
	}
	h.sweepAt = at
	h.sweepTimer = h.clk.AfterFunc(at.Sub(h.clk.Now())+10*time.Millisecond, h.sweep)
}

// sweep is the backstop exit: it drops every hold whose bid window closed
// without an award and every commitment whose lease lapsed — the initiator
// stopped refreshing and never released: it died, or its release was lost
// — with the run that depended on it, then re-arms at the next deadline on
// the calendar, going quiet when there is none.
func (h *Host) sweep() {
	h.mu.Lock()
	h.sweepAt = time.Time{}
	h.mu.Unlock()
	lapsed, next := h.Schedule.Expire(h.clk.Now())
	for _, c := range lapsed {
		h.Exec.Cancel(c.Workflow, c.Task)
	}
	if !next.IsZero() {
		h.armSweep(next)
	}
}

// Reset wipes the host's volatile protocol state — calendar, firm bids,
// commitment leases, execution runs, buffered labels — simulating a
// crash/restart that loses everything but the host's static configuration
// (fragments, services, mobility). The community layer calls it when the
// fault schedule kills the host.
func (h *Host) Reset() {
	h.Schedule.Clear()
	h.Exec.Reset()
	h.index.Reset()
}

// reply echoes the request's correlation ID back to the sender. Replies
// run under the host's root context: they belong to no caller and stop
// at host shutdown.
func (h *Host) reply(req proto.Envelope, body proto.Body) {
	env := proto.Envelope{ReqID: req.ReqID, Workflow: req.Workflow, Body: body}
	_ = h.sendEnvelope(h.ctx, req.From, env)
}

// --- capability advertisements (discovery) ---

// Discovery returns the host's memory of its community. The host's engine
// finds it here (engine.NewManager).
func (h *Host) Discovery() *discovery.Index { return h.index }

// capabilities returns what this host would advertise: the labels its
// fragments consume and the tasks it offers services for. Both managers
// share lists that a change replaces, never edits, so the advertisement
// built from them is served again, shared read-only, until either moves.
func (h *Host) capabilities() *proto.Advertise {
	labels, tasks := h.Fragments.ConsumedLabels(), h.Services.Tasks()
	if ad := h.ad.Load(); ad != nil && slices.Equal(ad.Labels, labels) && slices.Equal(ad.Tasks, tasks) {
		return ad
	}
	ad := &proto.Advertise{Labels: labels, Tasks: tasks}
	h.ad.Store(ad)
	return ad
}

// scheduleAdvertise arms the next periodic refresh tick, jittered ±10%
// around the configured cadence by the seeded rng so community-wide
// refresh bursts desynchronize deterministically.
func (h *Host) scheduleAdvertise() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.refreshEvery == 0 || h.closed || h.endpoint == nil {
		return
	}
	d := h.refreshEvery
	if spread := int64(d / 5); spread > 0 {
		d += time.Duration(h.adRng.Int63n(spread)) - d/10
	}
	h.adTimer = h.clk.AfterFunc(d, h.advertiseTick)
}

// advertiseTick is the refresh timer callback. On the simulated clock it
// runs synchronously inside Advance, so the sends — whose delivery may
// itself need clock progress — happen on their own goroutine; only the
// cheap re-arm stays on the timer path.
func (h *Host) advertiseTick() {
	h.AdvertiseSoon()
	h.scheduleAdvertise()
}

// advertiseOnce pushes one one-way advertisement to every other member
// (one frame each) and refreshes the host's own index entry. Push traffic is fire-and-forget: a lost
// refresh costs nothing until a full TTL of them are lost, at which
// point the receiver correctly presumes this host dead.
func (h *Host) advertiseOnce(ctx context.Context) {
	ad := h.capabilities()
	h.index.ObserveAdvertise(h.addr, ad.Labels, ad.Tasks)
	for _, m := range h.Members() {
		if m == h.addr {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		_ = h.Send(ctx, m, "", *ad)
	}
}

// AdvertiseSoon re-advertises asynchronously — the community layer calls
// it after a restart so the member announces itself without waiting out
// a refresh interval. Safe to call from clock timer callbacks.
func (h *Host) AdvertiseSoon() {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed || h.refreshEvery == 0 {
		return
	}
	go h.advertiseOnce(h.ctx)
}

// AdvertiseNow warms the index synchronously by pulling: it sends this
// host's advertisement to every other member as a request and records each
// AdvertiseAck's capability set, once. One O(members) sweep fully
// populates a cold initiator — the community learns about this host, and
// this host learns about the community — without waiting for the
// community's own refresh cadence. Members that do not answer are skipped:
// they stay unknown, so sweeps ask them. It needs the advertiser: a pushed
// entry nobody refreshes would lapse to presumed dead.
func (h *Host) AdvertiseNow(ctx context.Context) error {
	if h.refreshEvery == 0 {
		return fmt.Errorf("host %q: discovery disabled", h.addr)
	}
	ad := h.capabilities()
	h.index.ObserveAdvertise(h.addr, ad.Labels, ad.Tasks)
	for _, m := range h.Members() {
		if m == h.addr {
			continue
		}
		reply, err := h.Call(ctx, m, "", *ad, advertiseCallTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if ack, ok := reply.(proto.AdvertiseAck); ok {
			h.index.ObserveAdvertise(m, ack.Labels, ack.Tasks)
		}
	}
	return nil
}

// routeReply delivers a correlated reply to its waiting Call.
func (h *Host) routeReply(env proto.Envelope) {
	if env.ReqID == 0 {
		return
	}
	h.mu.Lock()
	c, ok := h.pending[env.ReqID]
	if ok {
		delete(h.pending, env.ReqID)
	}
	h.mu.Unlock()
	if ok {
		c.ch <- env
	}
}
