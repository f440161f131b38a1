// Package transport defines the abstract communications layer of the open
// workflow management system. Per the paper's second design principle
// (§4.2), the highly variable details of transports, protocols, and
// caching are hidden behind this interface; all components — local or
// remote — exchange proto.Envelopes through it uniformly.
//
// Two substrates ship with the system: inmem (a simulated network with
// configurable latency, loss, and partitions, used for simulation
// experiments) and tcpnet (real TCP sockets, used for the empirical
// configuration). Everything between Endpoint.Send and the Handler that is
// not the medium itself lives here, once (wire.go): a Sender stamps,
// coalesces, encodes, bounds and counts each frame, and Deliver decodes
// one and splits a coalesced batch. A substrate only moves bytes — it
// supplies one Link function that puts an encoded frame on the link to a
// peer, and calls Deliver on each frame that arrives — so the counters
// mean the same on either substrate by construction.
package transport

import (
	"context"
	"sync"

	"openwf/internal/proto"
)

// Handler receives inbound envelopes. Each endpoint invokes its handler
// sequentially from a single goroutine (a device processes one message at
// a time); handlers may call Send freely.
type Handler func(env proto.Envelope)

// MaxCoalesce bounds how many envelopes one proto.EnvelopeBatch frame
// carries: large enough to absorb any realistic burst on one link, small
// enough that a frame never approaches the latency of the burst it
// replaces.
const MaxCoalesce = 32

// MaxOutboxQueue caps how many envelopes may queue behind an in-flight
// write on one link. Beyond it new envelopes are dropped — the lossy
// wireless semantics of the layer — so a stalled peer cannot grow a
// sender's memory without bound.
const MaxOutboxQueue = 1024

// Coalescer is the write-side batching state machine shared by the
// transports: the envelopes queued behind an in-flight write on one
// directed link. The first sender on an idle link transmits its envelope
// immediately (zero added latency when the queue has one entry) and then
// drains whatever queued behind it into proto.EnvelopeBatch frames, so a
// burst on one link pays the per-frame overhead (framing + syscall on
// TCP, modeled MAC latency on the simulated medium) once per flush.
// It is concurrency-sensitive and deliberately lives in one place.
type Coalescer struct {
	mu    sync.Mutex
	queue []proto.Envelope
	busy  bool
}

// Admit offers env to the coalescer. When a write is already in flight
// the envelope is queued for the busy writer to flush (dropped reports a
// full queue — the envelope is lost) and writer is false; otherwise the
// caller becomes the writer: it must transmit env itself, then call
// Drain.
func (c *Coalescer) Admit(env proto.Envelope) (writer, dropped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.busy {
		if len(c.queue) >= MaxOutboxQueue {
			return false, true
		}
		c.queue = append(c.queue, env)
		return false, false
	}
	c.busy = true
	return true, false
}

// Drain flushes everything queued while the writer was transmitting —
// one frame per flush: a lone envelope as itself, several as one
// proto.EnvelopeBatch of at most MaxCoalesce addressed from→to — until
// the queue empties and the coalescer goes idle. Transmit errors are
// the transmit function's to account for: accepted envelopes are the
// transport's to deliver or lose, and the coalescer goes on draining.
func (c *Coalescer) Drain(from, to proto.Addr, transmit func(proto.Envelope) error) {
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.busy = false
			c.queue = nil
			c.mu.Unlock()
			return
		}
		k := len(c.queue)
		if k > MaxCoalesce {
			k = MaxCoalesce
		}
		batch := c.queue[:k:k]
		c.queue = c.queue[k:]
		c.mu.Unlock()
		if len(batch) == 1 {
			_ = transmit(batch[0])
		} else {
			_ = transmit(proto.Envelope{
				From: from, To: to,
				Body: proto.EnvelopeBatch{Envelopes: batch},
			})
		}
	}
}

// Stats is the framing and round-trip accounting shared by both
// transports — the diagnostic counterpart of the paper's message counts,
// and the seed of the daemon's transport metrics. Envelopes is the number
// of logical envelopes accepted for transmission, Frames the wire frames
// they traveled in (coalescing makes Frames ≤ Envelopes), Batches the
// frames that carried more than one envelope, and Calls the request
// envelopes — each opens a Call round trip, so Calls per Initiate is the
// round-trip count the batched protocol collapses. FramesDropped counts
// whole wire frames lost after framing (loss model, crash, unreachable
// peer, failed socket write): a coalesced batch that drops loses all its
// member envelopes but counts once here — loss is at frame granularity,
// never a partial batch.
type Stats struct {
	Envelopes     int64
	Frames        int64
	Batches       int64
	Calls         int64
	FramesDropped int64
}

// Add merges another snapshot into s (a community's sum over its
// endpoints).
func (s *Stats) Add(o Stats) {
	s.Envelopes += o.Envelopes
	s.Frames += o.Frames
	s.Batches += o.Batches
	s.Calls += o.Calls
	s.FramesDropped += o.FramesDropped
}

// Endpoint is one host's attachment to the network.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() proto.Addr
	// Send transmits an envelope to another host. Delivery is
	// asynchronous; like a wireless medium, Send does not report
	// whether the recipient received the message (a partitioned or
	// absent recipient loses it silently). An error indicates a local
	// failure such as a closed endpoint. The context bounds local
	// blocking work only (connection establishment, encoding); a
	// canceled context makes Send return promptly without transmitting.
	Send(ctx context.Context, to proto.Addr, env proto.Envelope) error
	// Close detaches the endpoint; pending deliveries are dropped.
	Close() error
}
