package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/core"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/trace"
)

// The tracer is the benchmark's own trace.Recorder and engine.Observer. It
// sees what the hosts already report through community.Options.Trace —
// every received envelope, every reply and one-way send — and buckets the
// events by workflow; clients add what they know about each finished
// operation. While the slice runs that is all it does, so tracing costs
// the traced system one append per event. Once the slice is over, build
// turns each operation's bucket into a span tree:
//
//	do → initiate → construct-phase | allocate-phase → rt.<kind>
//	                                   → link-out, serve.<kind>, link-back
//	execute → distribute → rt.plan-segment, hop × n, goal
//
// Host.Call does not report the request it sends, so a round trip's start
// is not observed: link-out is taken to last as long as the same round
// trip's link-back, which is observed at both ends, and is marked
// estimated. Every other boundary is a recorded event or a client-side
// timestamp.

// keepOneIn is the sampling of full span trees: aggregates cover every
// workflow, trees are kept for one workflow ID hash in keepOneIn.
const keepOneIn = 16

// replyKind maps each request kind to the kind of its reply.
var replyKind = map[string]string{
	"fragment-query":      "fragment-reply",
	"feasibility-query":   "feasibility-reply",
	"call-for-bids-batch": "bid-batch",
	"award":               "award-ack",
	"plan-segment":        "ack",
	"lease-refresh":       "lease-refresh-ack",
}

type traceEvent struct {
	at         time.Duration // since the tracer's epoch
	host, peer proto.Addr
	send       bool
	kind       string
}

// packedEvent is a traceEvent as a bucket stores it while the slice runs:
// strings interned to small numbers, so that the hundreds of thousands of
// events a slice retains hold no pointers for the collector to trace —
// kept as strings they cost the traced system a fifth of its throughput.
type packedEvent struct {
	at         time.Duration
	host, peer uint16
	kind       uint16
	send       bool
}

// interner numbers strings; safe for concurrent use.
type interner struct {
	mu    sync.RWMutex
	ids   map[string]uint16
	names []string
}

func (in *interner) id(s string) uint16 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	id = uint16(len(in.names))
	in.ids[s] = id
	in.names = append(in.names, s)
	return id
}

func (in *interner) name(id uint16) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.names[id]
}

type serviceEntry struct {
	task model.TaskID
	at   time.Duration
}

// bucket collects what the hosts and the engine report about one
// workflow while the slice runs.
type bucket struct {
	events       []packedEvent
	constructAt  time.Duration
	constructed  bool
	explored     int
	rounds       int
	awards       int
	replans      int
	serviceEntry []serviceEntry
}

const tracerShards = 32

type tracer struct {
	epoch time.Time
	// on gates recording: set-up and warm-up traffic is not recorded.
	on     atomic.Bool
	names  interner
	shards [tracerShards]struct {
		mu sync.Mutex
		wf map[string]*bucket
	}

	mu  sync.Mutex
	ops []tracedOp

	// agg and kept are filled by build, after the slice.
	agg  aggregates
	kept []keptSpan
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now(), agg: newAggregates(), names: interner{ids: make(map[string]uint16)}}
	for i := range tr.shards {
		tr.shards[i].wf = make(map[string]*bucket)
	}
	return tr
}

// wfHash is FNV-1a over the workflow ID.
func wfHash(wf string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(wf); i++ {
		h = (h ^ uint32(wf[i])) * 16777619
	}
	return h
}

// lock returns the workflow's bucket, created on first use, with its
// shard's mutex held; the caller unlocks it.
func (tr *tracer) lock(wf string) (*bucket, *sync.Mutex) {
	sh := &tr.shards[wfHash(wf)%tracerShards]
	sh.mu.Lock()
	b, ok := sh.wf[wf]
	if !ok {
		b = &bucket{}
		sh.wf[wf] = b
	}
	return b, &sh.mu
}

// with runs f on the workflow's bucket while the tracer is recording.
func (tr *tracer) with(wf string, f func(*bucket)) {
	if !tr.on.Load() {
		return
	}
	b, mu := tr.lock(wf)
	f(b)
	mu.Unlock()
}

var _ trace.Recorder = (*tracer)(nil)

// Record implements trace.Recorder. Envelopes outside any workflow
// (capability advertisements) are counted by the discovery layer's own
// counters and skipped here.
func (tr *tracer) Record(e trace.Event) {
	if e.Workflow == "" || !tr.on.Load() {
		return
	}
	ev := packedEvent{
		at: e.At.Sub(tr.epoch), send: e.Dir == trace.Send,
		host: tr.names.id(string(e.Host)), peer: tr.names.id(string(e.Peer)), kind: tr.names.id(e.Kind),
	}
	b, mu := tr.lock(e.Workflow)
	b.events = append(b.events, ev)
	mu.Unlock()
}

// done notes a finished operation; build turns it into spans.
func (tr *tracer) done(op tracedOp) {
	tr.mu.Lock()
	tr.ops = append(tr.ops, op)
	tr.mu.Unlock()
}

// build stops recording and turns every finished operation's bucket into
// spans. It runs once, after the slice, from one goroutine.
func (tr *tracer) build() {
	tr.on.Store(false)
	for _, op := range tr.ops {
		tr.finish(op)
	}
	tr.ops = nil
	for i := range tr.shards {
		tr.shards[i].wf = nil // events of unfinished and late traffic
	}
}

// observer returns the engine hooks that stamp the phase boundary and the
// construction and auction counts into the workflow's bucket.
func (tr *tracer) observer() engine.Observer {
	return engine.Observer{
		ConstructionDone: func(wf string, res core.Result) {
			at := time.Since(tr.epoch)
			tr.with(wf, func(b *bucket) {
				if !b.constructed {
					b.constructed, b.constructAt = true, at
				}
				b.explored, b.rounds = res.Explored, res.CollectionRounds
			})
		},
		TaskDecided: func(wf string, _ model.TaskID, winner proto.Addr) {
			if winner != "" {
				tr.with(wf, func(b *bucket) { b.awards++ })
			}
		},
		Replanned: func(wf string, _ int, _ []model.TaskID) {
			tr.with(wf, func(b *bucket) { b.replans++ })
		},
	}
}

// entered records a benchmark service body's entry.
func (tr *tracer) entered(wf string, task model.TaskID, at time.Time) {
	e := serviceEntry{task: task, at: at.Sub(tr.epoch)}
	tr.with(wf, func(b *bucket) { b.serviceEntry = append(b.serviceEntry, e) })
}

func (tr *tracer) hooks() hooks {
	return hooks{trace: tr, observer: tr.observer(), entered: tr.entered}
}

// tracedOp is what the client knows about one finished operation.
type tracedOp struct {
	workflow  string
	initiator proto.Addr
	// doStart/doEnd bound the client's Server.Do; zero when the client
	// called the community directly.
	doStart, doEnd     time.Time
	initStart, initEnd time.Time
	// execStart/execEnd bound Community.Execute; zero when not executed.
	execStart, execEnd time.Time
	// metas and allocs are the plan's windows and executors, for
	// exec.start_lag.
	metas  map[model.TaskID]proto.TaskMeta
	allocs map[model.TaskID]proto.Addr
}

// span is one node of a workflow's span tree.
type span struct {
	name       string
	host       proto.Addr
	start, end time.Duration
	estimated  bool
	children   []*span
}

func (s *span) dur() time.Duration { return s.end - s.start }

func (s *span) add(c *span) *span {
	s.children = append(s.children, c)
	return c
}

// selfTime is the span's duration minus the part of it its children cover.
func (s *span) selfTime() time.Duration {
	ivs := make([]interval, 0, len(s.children))
	for _, c := range s.children {
		ivs = append(ivs, interval{c.start, c.end})
	}
	return s.dur() - covered(ivs, s.start, s.end)
}

type interval struct{ start, end time.Duration }

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	at := lo
	for _, iv := range ivs {
		s, e := max(iv.start, at), min(iv.end, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// fifo pairs the k-th event of one stream with the k-th of another.
type fifoKey struct {
	host, peer proto.Addr
	send       bool
	kind       string
}

type fifos map[fifoKey][]time.Duration

func (f fifos) pop(k fifoKey) (time.Duration, bool) {
	q := f[k]
	if len(q) == 0 {
		return 0, false
	}
	f[k] = q[1:]
	return q[0], true
}

// roundTrip is one paired request/reply exchange.
type roundTrip struct {
	kind                          string
	peer                          proto.Addr
	reqRecv, replySend, replyRecv time.Duration
}

// pairEvents matches the events of one workflow: each request received at
// a peer with the peer's reply send and the requester's reply receive
// (k-th with k-th per host, peer and kind — links and per-workflow
// dispatch are FIFO), and each one-way send with its receive. events must
// be in time order.
func pairEvents(events []traceEvent) (rts []roundTrip, oneWay []interval) {
	q := make(fifos)
	for _, e := range events {
		k := fifoKey{e.host, e.peer, e.send, e.kind}
		q[k] = append(q[k], e.at)
	}
	for _, e := range events {
		if e.send {
			continue
		}
		if reply, ok := replyKind[e.kind]; ok {
			sent, ok1 := q.pop(fifoKey{e.host, e.peer, true, reply})
			got, ok2 := q.pop(fifoKey{e.peer, e.host, false, reply})
			if ok1 && ok2 {
				rts = append(rts, roundTrip{kind: e.kind, peer: e.host, reqRecv: e.at, replySend: sent, replyRecv: got})
			}
		}
	}
	// What is left in the send queues are one-way messages (and the reply
	// legs, which pop consumed): pair each with its receive.
	for k, sends := range q {
		if !k.send {
			continue
		}
		recvs := q[fifoKey{k.peer, k.host, false, k.kind}]
		for i := 0; i < len(sends) && i < len(recvs); i++ {
			oneWay = append(oneWay, interval{sends[i], recvs[i]})
		}
	}
	return rts, oneWay
}

// rtSpan builds the span of one round trip. Its start is estimated (see
// the package comment) and never precedes floor, its parent's start.
func rtSpan(rt roundTrip, floor time.Duration) *span {
	back := rt.replyRecv - rt.replySend
	start := max(rt.reqRecv-back, floor)
	start = min(start, rt.reqRecv)
	s := &span{name: "rt." + rt.kind, host: rt.peer, start: start, end: rt.replyRecv, estimated: true}
	s.add(&span{name: "link-out", host: rt.peer, start: start, end: rt.reqRecv, estimated: true})
	s.add(&span{name: "serve." + rt.kind, host: rt.peer, start: rt.reqRecv, end: rt.replySend})
	s.add(&span{name: "link-back", host: rt.peer, start: rt.replySend, end: rt.replyRecv})
	return s
}

// finish turns one operation's bucket into spans, folds them into the
// aggregates and keeps the tree for one workflow in keepOneIn.
func (tr *tracer) finish(op tracedOp) {
	b := tr.shards[wfHash(op.workflow)%tracerShards].wf[op.workflow]
	if b == nil {
		return
	}
	rel := func(t time.Time) time.Duration { return t.Sub(tr.epoch) }
	events := make([]traceEvent, len(b.events))
	for i, e := range b.events {
		events[i] = traceEvent{
			at: e.at, send: e.send, kind: tr.names.name(e.kind),
			host: proto.Addr(tr.names.name(e.host)), peer: proto.Addr(tr.names.name(e.peer)),
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	rts, oneWay := pairEvents(events)

	initiate := &span{name: "initiate", host: op.initiator, start: rel(op.initStart), end: rel(op.initEnd)}
	roots := []*span{initiate}
	if !op.doStart.IsZero() {
		do := &span{name: "do", host: op.initiator, start: rel(op.doStart), end: rel(op.doEnd)}
		do.add(initiate)
		roots = []*span{do}
	}
	construct, allocate := initiate, initiate
	if b.constructed && b.constructAt >= initiate.start && b.constructAt <= initiate.end {
		construct = initiate.add(&span{name: "construct-phase", host: op.initiator, start: initiate.start, end: b.constructAt})
		allocate = initiate.add(&span{name: "allocate-phase", host: op.initiator, start: b.constructAt, end: initiate.end})
	}
	var execute, distribute *span
	if !op.execStart.IsZero() {
		execute = &span{name: "execute", host: op.initiator, start: rel(op.execStart), end: rel(op.execEnd)}
		distribute = execute.add(&span{name: "distribute", host: op.initiator, start: execute.start, end: execute.start})
		roots = append(roots, execute)
	}

	var initIvs []interval
	perKind := make(map[string]int)
	sweeps := make(map[proto.Addr]int)
	for _, rt := range rts {
		switch {
		case rt.kind == "plan-segment" && distribute != nil:
			distribute.add(rtSpan(rt, distribute.start))
			distribute.end = max(distribute.end, rt.replyRecv)
		case rt.replyRecv <= initiate.end:
			parent := allocate
			if construct != allocate && rt.replyRecv <= construct.end {
				parent = construct
			}
			s := parent.add(rtSpan(rt, parent.start))
			initIvs = append(initIvs, interval{s.start, s.end})
			perKind[rt.kind]++
			if rt.kind == "call-for-bids-batch" {
				sweeps[rt.peer]++
			}
		case execute != nil:
			execute.add(rtSpan(rt, execute.start)) // lease refreshes
		}
	}

	var lag []time.Duration
	transfers := 0
	if execute != nil {
		transfers, lag = tr.executeSpans(events, b.serviceEntry, op, execute)
	}

	a := &tr.agg
	a.ops++
	a.selfMs = append(a.selfMs, ms(initiate.dur()-covered(initIvs, initiate.start, initiate.end)))
	for k, n := range perKind {
		a.rtCount[k] += n
	}
	maxSweeps := 0
	for _, n := range sweeps {
		maxSweeps = max(maxSweeps, n)
	}
	a.sweeps += maxSweeps
	a.replans += b.replans
	a.awards += b.awards
	a.explored += b.explored
	a.rounds += b.rounds
	for _, iv := range oneWay {
		a.linkWait = append(a.linkWait, ms(iv.end-iv.start))
	}
	for _, rt := range rts {
		a.linkWait = append(a.linkWait, ms(rt.replyRecv-rt.replySend))
	}
	if execute != nil {
		a.executes++
		a.transfers += transfers
		for _, l := range lag {
			a.startLagUs = append(a.startLagUs, float64(l)/float64(time.Microsecond))
		}
	}
	keep := wfHash(op.workflow)%keepOneIn == 0
	for _, r := range roots {
		tr.fold(r, -1, op.workflow, keep)
	}
}

// executeSpans adds the data-flow spans of an executed chain: one hop per
// label transfer an executor sent (its latest input's arrival → the send),
// and goal (first label transfer sent → last one received at the
// initiator). It returns the number of label transfers and, per service
// entry, how long after both its window opened and its last input arrived
// the benchmark's service body was entered.
func (tr *tracer) executeSpans(events []traceEvent, entries []serviceEntry, op tracedOp, execute *span) (int, []time.Duration) {
	lastRecv := make(map[proto.Addr]time.Duration)
	recvAt := make(map[proto.Addr][]time.Duration)
	var first, goal time.Duration
	transfers := 0
	for _, e := range events {
		if e.kind != "label-transfer" {
			continue
		}
		if !e.send {
			lastRecv[e.host] = e.at
			recvAt[e.host] = append(recvAt[e.host], e.at)
			if e.host == op.initiator {
				goal = e.at
			}
			continue
		}
		transfers++
		if first == 0 || e.at < first {
			first = e.at
		}
		if in, ok := lastRecv[e.host]; ok && e.host != op.initiator {
			execute.add(&span{name: "hop", host: e.host, start: in, end: e.at})
		}
	}
	if goal > first && first > 0 {
		execute.add(&span{name: "goal", host: op.initiator, start: first, end: goal})
	}
	var lag []time.Duration
	for _, se := range entries {
		ready := op.metas[se.task].Start.Sub(tr.epoch)
		for _, at := range recvAt[op.allocs[se.task]] {
			if at <= se.at && at > ready {
				ready = at
			}
		}
		if se.at >= ready {
			lag = append(lag, se.at-ready)
		}
	}
	return transfers, lag
}

// keptSpan is one span of a kept tree, flattened for the span file.
type keptSpan struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // -1 for a root
	Workflow  string `json:"workflow"`
	Name      string `json:"name"`
	Host      string `json:"host"`
	StartUs   int64  `json:"start_us"`
	EndUs     int64  `json:"end_us"`
	Estimated bool   `json:"estimated,omitempty"`
}

// fold adds the span and its subtree to the per-name aggregates and, when
// keep is set, to the kept spans.
func (tr *tracer) fold(s *span, parent int, wf string, keep bool) {
	st := tr.agg.byName[s.name]
	if st == nil {
		st = &nameStats{}
		tr.agg.byName[s.name] = st
	}
	st.durMs = append(st.durMs, ms(s.dur()))
	st.selfMs += ms(s.selfTime())
	id := -1
	if keep {
		id = len(tr.kept)
		tr.kept = append(tr.kept, keptSpan{
			ID: id, Parent: parent, Workflow: wf, Name: s.name, Host: string(s.host),
			StartUs: s.start.Microseconds(), EndUs: s.end.Microseconds(), Estimated: s.estimated,
		})
	}
	for _, c := range s.children {
		tr.fold(c, id, wf, keep)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nameStats aggregates every span of one name.
type nameStats struct {
	durMs  []float64
	selfMs float64
}

// aggregates cover every finished workflow of a traced repetition.
type aggregates struct {
	ops        int
	byName     map[string]*nameStats
	selfMs     []float64 // per Initiate: span minus the union of its round trips
	rtCount    map[string]int
	sweeps     int
	replans    int
	awards     int
	explored   int
	rounds     int
	linkWait   []float64 // legs observed at both ends: replies and one-way sends
	executes   int
	transfers  int
	startLagUs []float64
}

func newAggregates() aggregates {
	return aggregates{byName: make(map[string]*nameStats), rtCount: make(map[string]int)}
}

// p50 returns the median duration of the spans of the given name.
func (a *aggregates) p50(name string) float64 {
	if st := a.byName[name]; st != nil {
		return median(st.durMs)
	}
	return 0
}

// merge folds another repetition's aggregates into a.
func (a *aggregates) merge(o *aggregates) {
	a.ops += o.ops
	for name, st := range o.byName {
		dst := a.byName[name]
		if dst == nil {
			dst = &nameStats{}
			a.byName[name] = dst
		}
		dst.durMs = append(dst.durMs, st.durMs...)
		dst.selfMs += st.selfMs
	}
	a.selfMs = append(a.selfMs, o.selfMs...)
	for k, n := range o.rtCount {
		a.rtCount[k] += n
	}
	a.sweeps += o.sweeps
	a.replans += o.replans
	a.awards += o.awards
	a.explored += o.explored
	a.rounds += o.rounds
	a.linkWait = append(a.linkWait, o.linkWait...)
	a.executes += o.executes
	a.transfers += o.transfers
	a.startLagUs = append(a.startLagUs, o.startLagUs...)
}
