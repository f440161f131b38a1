// Package inmem implements the simulated network used by the paper's
// simulation experiments (§5): every host runs in one process and
// communicates solely through this in-memory transport. The network can
// model an ad hoc wireless medium: per-message latency (propagation plus
// serialization at a configured bandwidth), jitter, random loss, and
// community partitions. Delivery is FIFO per directed link, and each
// endpoint processes messages sequentially, like a single device.
//
// # Concurrency
//
// One mutex, Network.mu, guards everything the delivery decision reads:
// the endpoint, partition and crash tables, the store-and-forward buffer,
// and the per-directed-link state (loss override, seeded random source,
// delay line). A send copies its frame into a pooled buffer (returned once
// the recipient has decoded it) outside the lock, decides under it, and
// pushes to the recipient's mailbox after releasing it; the mailbox's dark
// flag is what keeps a push that lost that race to a Crash out of the
// crashed host's inbox. DESIGN.md §14 records the sharded, copy-on-write
// send path that was tried in its place, measured, and removed.
package inmem

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/clock"
	"openwf/internal/proto"
	"openwf/internal/transport"
)

// LinkModel computes the behavior of one message on a directed link:
// the delivery latency and whether the medium drops the message. size is
// the encoded message size in bytes. The model is called with the
// network's lock held and its link's own random source; it must not block.
type LinkModel func(from, to proto.Addr, size int, rng *rand.Rand) (latency time.Duration, drop bool)

// FixedLatency returns a LinkModel with constant latency and no loss.
func FixedLatency(d time.Duration) LinkModel {
	return func(_, _ proto.Addr, _ int, _ *rand.Rand) (time.Duration, bool) {
		return d, false
	}
}

// Wireless models an 802.11-style shared medium: each message takes
// base latency (MAC + propagation) plus its serialization time at the
// given bandwidth, plus uniform jitter in [0, jitter).
//
// The paper's empirical configuration used 802.11g at 54 Mbit/s;
// evalgen.Wireless80211g is that medium for small control messages:
// Wireless(500*time.Microsecond, 200*time.Microsecond, 54e6).
func Wireless(base, jitter time.Duration, bandwidthBps float64) LinkModel {
	return func(_, _ proto.Addr, size int, rng *rand.Rand) (time.Duration, bool) {
		lat := base
		if bandwidthBps > 0 {
			lat += time.Duration(float64(size*8) / bandwidthBps * float64(time.Second))
		}
		if jitter > 0 {
			lat += time.Duration(rng.Int63n(int64(jitter)))
		}
		return lat, false
	}
}

// Option configures a Network.
type Option func(*Network)

// WithClock sets the clock used for latency sleeps (default: wall clock).
func WithClock(c clock.Clock) Option { return func(n *Network) { n.clock = c } }

// WithLinkModel sets the latency/loss model (default: instantaneous,
// lossless delivery).
func WithLinkModel(m LinkModel) Option { return func(n *Network) { n.model = m } }

// WithSeed seeds the network's randomness (jitter, loss). Each directed
// link derives its own independent source from this seed and the link's
// addresses, so the streams are deterministic per link regardless of how
// sends interleave across links. Default 1.
func WithSeed(seed int64) Option { return func(n *Network) { n.seed = seed } }

// WithStoreAndForward buffers messages addressed to unreachable hosts
// (partitioned or not yet attached) and delivers them, in order, once the
// recipient becomes reachable again — the store-carry-forward behavior of
// delay-tolerant MANET routing that the paper points to for accommodating
// transient connectivity (its reference [3]). Without it, unreachable
// recipients lose messages silently like a plain wireless medium.
func WithStoreAndForward(enabled bool) Option {
	return func(n *Network) { n.storeAndForward = enabled }
}

// linkState is what the medium keeps per directed link; Network.mu guards
// it. (The link's write-side queue belongs to the sending endpoint's
// transport.Sender.)
type linkState struct {
	// rng is this link's private random source (jitter, loss draws),
	// derived deterministically from the network seed and the link key.
	rng *rand.Rand
	// loss is the per-link loss override (SetLinkLoss); 0 means none.
	loss float64
	// line is the link's delay line, created on the first latency-bearing
	// delivery.
	line *link
}

// Network is a simulated broadcast domain connecting endpoints. Create
// endpoints with Endpoint; close the network to tear everything down.
type Network struct {
	clock           clock.Clock
	model           LinkModel
	seed            int64
	storeAndForward bool

	// mu guards the tables below; see the package comment.
	mu        sync.Mutex
	endpoints map[proto.Addr]*endpoint
	// links holds the per-directed-link state, created on first use.
	links     map[linkKey]*linkState
	partition map[proto.Addr]int
	// crashed marks hosts that are dark (see Crash/Restart in faults.go);
	// crashEpoch counts each host's crashes so frames in flight across a
	// crash are severed even when the host restarts before their due time.
	// Both are nil until first used.
	crashed    map[proto.Addr]bool
	crashEpoch map[proto.Addr]uint64
	// stored holds store-and-forward messages awaiting reachability,
	// in arrival order per (from, to) pair.
	stored map[linkKey][]delivery
	closed bool
	// done closes when the network shuts down, waking link pumps out of
	// latency waits so Close does not leak goroutines sleeping on long
	// modeled delays.
	done chan struct{}

	// wire is the accounting of every endpoint's sender; the medium adds
	// what only it knows: envelopes handed to handlers, envelopes in frames
	// it lost, payload bytes it carried.
	wire      transport.Counters
	delivered atomic.Int64
	dropped   atomic.Int64
	bytes     atomic.Int64
}

// Stats is the network's round-trip and framing accounting — the shared
// transport.Stats shape (see its field documentation), kept as an alias
// so existing callers and the daemon's metrics scrape read the same
// counters from either substrate. The Calls column is where PR 5's ≥3x
// round-trip acceptance bar reads directly.
type Stats = transport.Stats

// Stats returns the current counters.
func (n *Network) Stats() Stats { return n.wire.Stats() }

type linkKey struct{ from, to proto.Addr }

// NewNetwork returns an empty simulated network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		clock:     clock.New(),
		seed:      1,
		endpoints: make(map[proto.Addr]*endpoint),
		links:     make(map[linkKey]*linkState),
		stored:    make(map[linkKey][]delivery),
		done:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// linkLocked returns (creating on first use) the state of a directed link.
func (n *Network) linkLocked(k linkKey) *linkState {
	ls, ok := n.links[k]
	if !ok {
		ls = &linkState{rng: rand.New(rand.NewSource(linkSeed(n.seed, k)))}
		n.links[k] = ls
	}
	return ls
}

// linkSeed derives a link's private random seed from the network seed:
// deterministic per (seed, from, to), independent across links (FNV-1a
// of the two addresses, 0xff between them so ("ab","c") and ("a","bc")
// differ).
func linkSeed(seed int64, k linkKey) int64 {
	h := fnv.New64a()
	h.Write([]byte(k.from))
	h.Write([]byte{0xff})
	h.Write([]byte(k.to))
	return seed ^ int64(h.Sum64())
}

// Endpoint attaches a host to the network. The handler is invoked
// sequentially from a dedicated goroutine for every delivered message.
func (n *Network) Endpoint(addr proto.Addr, handler transport.Handler) (transport.Endpoint, error) {
	if handler == nil {
		return nil, fmt.Errorf("inmem: nil handler for %q", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("inmem: network closed")
	}
	if _, dup := n.endpoints[addr]; dup {
		return nil, fmt.Errorf("inmem: address %q already in use", addr)
	}
	ep := &endpoint{net: n, addr: addr, box: newMailbox()}
	ep.handler = func(env proto.Envelope) {
		n.delivered.Add(1)
		handler(env)
	}
	ep.Sender = transport.NewSender(addr, 0, &n.wire, ep.put)
	n.endpoints[addr] = ep
	go ep.pump()
	// A late joiner may have store-and-forward traffic waiting.
	n.flushStoredLocked()
	return ep, nil
}

// SetPartition splits the community into isolated groups: hosts may only
// reach hosts in their own group. Hosts not listed in any group are
// isolated entirely. Pass no groups to heal the partition. With
// store-and-forward enabled, buffered messages whose recipients became
// reachable are flushed in order.
func (n *Network) SetPartition(groups ...[]proto.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(groups) == 0 {
		n.partition = nil
	} else {
		n.partition = make(map[proto.Addr]int)
		for i, g := range groups {
			for _, a := range g {
				n.partition[a] = i + 1
			}
		}
	}
	n.flushStoredLocked()
}

// flushStoredLocked delivers, in arrival order, every stored message
// whose recipient is now attached, reachable and alive.
func (n *Network) flushStoredLocked() {
	for k, msgs := range n.stored {
		target, ok := n.endpoints[k.to]
		if !ok || !n.reachableLocked(k.from, k.to) || n.crashed[k.to] {
			continue
		}
		for _, d := range msgs {
			if !target.box.push(d) {
				n.lost(d)
			}
		}
		delete(n.stored, k)
	}
}

// Messages returns the number of envelopes accepted for transmission.
func (n *Network) Messages() int64 { return n.wire.Stats().Envelopes }

// Delivered returns the number of envelopes handed to handlers.
func (n *Network) Delivered() int64 { return n.delivered.Load() }

// Dropped returns the number of envelopes lost (partition, loss model,
// missing/closed recipient, a sender's full queue, or a queued envelope's
// refused frame).
func (n *Network) Dropped() int64 { return n.dropped.Load() + n.wire.Lost() }

// Bytes returns the total encoded payload bytes transmitted.
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// ResetCounters zeroes the traffic counters (between evaluation runs).
func (n *Network) ResetCounters() {
	n.wire.Reset()
	n.delivered.Store(0)
	n.dropped.Store(0)
	n.bytes.Store(0)
}

// Close tears down the network and all endpoints.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	boxes := make([]*mailbox, 0, len(n.endpoints)+len(n.links))
	for _, ep := range n.endpoints {
		boxes = append(boxes, ep.box)
	}
	for _, ls := range n.links {
		if ls.line != nil {
			boxes = append(boxes, ls.line.box)
		}
	}
	n.mu.Unlock()
	for _, box := range boxes {
		box.close()
	}
	return nil
}

// lost accounts one frame that will never reach a handler.
func (n *Network) lost(d delivery) {
	n.dropped.Add(d.envelopes)
	n.wire.FrameDropped()
}

// framePool recycles the buffers frames travel in. The recipient's pump
// returns one once the frame is decoded (an envelope shares no memory with
// its frame); a frame that is lost, purged or dropped is left to the GC.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// put is the endpoint's transport.Link: the delivery decision for one
// encoded frame. It copies the bytes outside the lock (only they travel: a
// receiver decodes its own copy and never shares a slice or map with the
// sender), decides under it — crash state, reachability, loss draw,
// latency model — and hands the frame to the recipient's inbox or the
// link's delay line after releasing it.
func (e *endpoint) put(_ context.Context, to proto.Addr, frame []byte, envelopes int64) error {
	n := e.net
	buf := framePool.Get().(*[]byte)
	*buf = append((*buf)[:0], frame...)
	d := delivery{frame: buf, envelopes: envelopes}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("inmem: network closed")
	}
	if n.crashed[e.addr] {
		// A crashed host cannot transmit: the failure is loud on the
		// sender's side (its own Call fails) rather than silent loss.
		n.mu.Unlock()
		return fmt.Errorf("inmem: host %q crashed", e.addr)
	}
	box, held := n.routeLocked(e.addr, to, &d)
	n.mu.Unlock()

	n.bytes.Add(int64(len(*d.frame)))
	if !held && (box == nil || !box.push(d)) {
		n.lost(d)
	}
	return nil
}

// routeLocked makes the delivery decision for one accepted frame. It
// returns the mailbox to push d to — the recipient's inbox, or the link's
// delay line when the model charges latency — after stamping d with its
// due time and the recipient's crash epoch. A nil mailbox means the frame
// is lost, unless held reports that store-and-forward buffered it.
func (n *Network) routeLocked(from, to proto.Addr, d *delivery) (box *mailbox, held bool) {
	if n.crashed[to] {
		// Dark recipient: the frame is lost, never stored — a crash is
		// loss, unlike a partition.
		return nil, false
	}
	k := linkKey{from, to}
	target, ok := n.endpoints[to]
	if !ok || !n.reachableLocked(from, to) {
		if !n.storeAndForward {
			return nil, false // silent loss, like a wireless medium
		}
		d.due = n.clock.Now()
		n.stored[k] = append(n.stored[k], *d)
		return nil, true
	}
	ls := n.linkLocked(k)
	if ls.loss > 0 && ls.rng.Float64() < ls.loss {
		return nil, false
	}
	var latency time.Duration
	if n.model != nil {
		var drop bool
		if latency, drop = n.model(from, to, len(*d.frame), ls.rng); drop {
			return nil, false
		}
	}
	d.due = n.clock.Now().Add(latency)
	d.epoch = n.crashEpoch[to]
	if latency <= 0 {
		return target.box, false
	}
	if ls.line == nil {
		ls.line = &link{net: n, target: target, box: newMailbox()}
		go ls.line.pump()
	}
	return ls.line.box, false
}

func (n *Network) reachableLocked(from, to proto.Addr) bool {
	if n.partition == nil || from == to {
		return true
	}
	gf, okf := n.partition[from]
	gt, okt := n.partition[to]
	return okf && okt && gf == gt
}

// link is the FIFO delay line for a directed link. Each link has a
// goroutine that holds messages until their due time, preserving
// per-link ordering while letting latencies overlap (propagation is
// concurrent; ordering is not violated because every message on a link
// has the same base model).
type link struct {
	net    *Network
	target *endpoint
	box    *mailbox
}

func (l *link) pump() {
	for {
		d, ok := l.box.pop()
		if !ok {
			return
		}
		if wait := d.due.Sub(l.net.clock.Now()); wait > 0 {
			select {
			case <-l.net.clock.After(wait):
			case <-l.net.done:
				return // network closed: drop in-flight latency waits
			}
		}
		// Re-check at delivery time: a frame is lost if its recipient is
		// dark now, or crashed at any point since the frame was sent (the
		// epoch moved) — a restart never resurrects in-flight traffic.
		n, to := l.net, l.target.addr
		n.mu.Lock()
		dark := n.crashed[to] || n.crashEpoch[to] != d.epoch
		n.mu.Unlock()
		if dark || !l.target.box.push(d) {
			n.lost(d)
		}
	}
}

// delivery is one frame on its way: the encoded bytes (a framePool buffer)
// and how many envelopes they carry (loss is accounted in envelope units).
type delivery struct {
	frame     *[]byte
	envelopes int64
	due       time.Time
	// epoch is the recipient's crash epoch at send time; a mismatch at
	// delivery means the recipient crashed while the frame was in flight.
	epoch uint64
}

// endpoint implements transport.Endpoint; Send is its Sender's.
type endpoint struct {
	*transport.Sender
	net  *Network
	addr proto.Addr
	// handler counts an envelope delivered, then runs the host's handler.
	handler transport.Handler
	box     *mailbox
}

var _ transport.Endpoint = (*endpoint)(nil)

// Addr implements transport.Endpoint.
func (e *endpoint) Addr() proto.Addr { return e.addr }

// Close implements transport.Endpoint.
func (e *endpoint) Close() error {
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()
	e.box.close()
	return nil
}

// pump delivers queued frames to the handler, one at a time, and returns
// each frame's buffer to the pool; a frame that does not decode is lost.
func (e *endpoint) pump() {
	for {
		d, ok := e.box.pop()
		if !ok {
			return
		}
		if err := transport.Deliver(e.handler, *d.frame); err != nil {
			e.net.lost(d)
		}
		framePool.Put(d.frame)
	}
}

// mailbox is an unbounded FIFO queue; push never blocks, pop blocks until
// an item arrives or the mailbox closes. A dark mailbox (its host has
// crashed) refuses pushes until Restart lifts the flag: a sender decides
// under Network.mu but pushes after releasing it, and push and crash purge
// serialize on the mailbox's own lock, so a frame routed just before a
// Crash cannot slip into the crashed host's inbox after it.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// items[head:] are queued; pop rewinds both to the array's start once it
	// takes the last item, so a mailbox that drains keeps its array.
	items  []delivery
	head   int
	closed bool
	dark   bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues an item; it reports false if the mailbox is closed or
// dark.
func (m *mailbox) push(d delivery) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.dark {
		return false
	}
	if m.head > 0 && len(m.items) == cap(m.items) {
		// A queue that never drains slides down rather than growing.
		m.items, m.head = m.items[:copy(m.items, m.items[m.head:])], 0
	}
	m.items = append(m.items, d)
	m.cond.Signal()
	return true
}

// setDark flips the crash flag. Going dark drops every queued item,
// returning them for loss accounting; the mailbox stays open (a crashed
// host's endpoint survives to be restarted).
func (m *mailbox) setDark(dark bool) []delivery {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dark = dark
	if !dark {
		return nil
	}
	// The array goes with the items: the caller reads them after unlocking.
	out := m.items[m.head:]
	m.items, m.head = nil, 0
	return out
}

// pop dequeues the oldest item, blocking as needed; ok is false once the
// mailbox is closed and drained.
func (m *mailbox) pop() (delivery, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		return delivery{}, false
	}
	d := m.items[m.head]
	m.items[m.head] = delivery{}
	if m.head++; m.head == len(m.items) {
		m.items, m.head = m.items[:0], 0
	}
	return d, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.items, m.head = nil, 0
	m.cond.Broadcast()
}
