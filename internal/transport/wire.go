package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/proto"
)

// MaxFrame bounds one encoded frame (16 MiB). The sender refuses a larger
// one where that is knowable — after encoding, before anything is written —
// and a substrate that reads lengths off a wire uses the same bound to fail
// fast on a corrupted length prefix.
const MaxFrame = 16 << 20

// drainTimeout bounds the substrate's blocking work (tcpnet: connection
// establishment) for one frame of queued envelopes: they detached from
// their callers' contexts when they were accepted, so the drain supplies
// its own deadline — a blackholed peer costs one bounded dial per flush,
// never a wedged coalescer.
const drainTimeout = 10 * time.Second

// Counters is the accounting of the frames a Sender put on its links: the
// five Stats fields plus the envelopes accepted and lost before any frame
// carried them. A substrate owns one value — per endpoint (tcpnet) or
// shared by every endpoint of a simulated network (inmem) — and only adds
// the frames its medium loses.
type Counters struct {
	envelopes, frames, batches, calls, framesDropped, lost atomic.Int64
}

// Stats returns a snapshot of the counters.
func (c *Counters) Stats() Stats {
	return Stats{
		Envelopes:     c.envelopes.Load(),
		Frames:        c.frames.Load(),
		Batches:       c.batches.Load(),
		Calls:         c.calls.Load(),
		FramesDropped: c.framesDropped.Load(),
	}
}

// Lost returns how many envelopes Send accepted (returned nil for) and then
// lost before any frame reached the medium: refused at MaxOutboxQueue, or
// queued and then carried by a drained frame the sender or the link
// refused. They count under Stats.Envelopes, but under no other field: no
// frame went on the link to count under Frames or FramesDropped.
func (c *Counters) Lost() int64 { return c.lost.Load() }

// lose counts n envelopes as accepted and lost.
func (c *Counters) lose(n int64) {
	c.envelopes.Add(n)
	c.lost.Add(n)
}

// FrameDropped records that the medium lost one frame the link function
// had accepted (returned nil for).
func (c *Counters) FrameDropped() { c.framesDropped.Add(1) }

// Reset zeroes the counters (between evaluation runs).
func (c *Counters) Reset() {
	for _, n := range []*atomic.Int64{&c.envelopes, &c.frames, &c.batches, &c.calls, &c.framesDropped, &c.lost} {
		n.Store(0)
	}
}

// add counts (sign 1) or takes back (sign -1) one wire frame — a lone
// envelope or the proto.EnvelopeBatch Drain built — in envelope units:
// the envelopes it carries and how many of them are requests, each opening
// a Call round trip, whether or not the frame was coalesced.
func (c *Counters) add(frame proto.Envelope, sign int64) (envelopes int64) {
	carried := []proto.Envelope{frame}
	if batch, ok := frame.Body.(proto.EnvelopeBatch); ok {
		carried = batch.Envelopes
		c.batches.Add(sign)
	}
	for _, env := range carried {
		if proto.IsRequest(env.Body) {
			c.calls.Add(sign)
		}
	}
	c.envelopes.Add(sign * int64(len(carried)))
	c.frames.Add(sign)
	return int64(len(carried))
}

// Link is what a substrate supplies on the write side: put one encoded
// frame, carrying the given number of envelopes, on the link to a peer.
// The first reserve bytes of frame (see NewSender) are the substrate's to
// fill in; the slice is recycled when Link returns, so a substrate that
// keeps the bytes copies them. A nil return means the frame went on the
// link — to be delivered, or lost and counted by the substrate
// (Counters.FrameDropped); an error means nothing was written.
type Link func(ctx context.Context, to proto.Addr, frame []byte, envelopes int64) error

// Sender is the write half of one endpoint, the same on every substrate:
// it stamps, coalesces, encodes, bounds and counts a frame, and hands the
// bytes to the substrate's Link.
type Sender struct {
	addr    proto.Addr
	reserve int
	count   *Counters
	link    Link

	mu       sync.Mutex
	outboxes map[proto.Addr]*Coalescer
}

// NewSender returns the sender of the endpoint at addr. Every frame is
// encoded after reserve zero bytes (the substrate's fixed header: tcpnet's
// length prefix) and accounted in count.
func NewSender(addr proto.Addr, reserve int, count *Counters, link Link) *Sender {
	return &Sender{addr: addr, reserve: reserve, count: count, link: link, outboxes: make(map[proto.Addr]*Coalescer)}
}

// encPool recycles encode buffers across sends: a substrate writes or
// copies the frame before its Link returns, so the grown backing array is
// reused and steady-state traffic stops churning the GC with per-envelope
// buffer growth.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Send is Endpoint.Send for any substrate. An envelope sent while another
// write to the same peer is in flight is queued (bounded; a stalled peer
// drops the overflow like the lossy medium it models) and flushed by the
// busy sender as part of one proto.EnvelopeBatch frame; an idle link
// transmits it immediately as its own frame, zero added latency. Queued
// envelopes detach from their caller's context — like the wireless medium,
// once accepted they are the transport's to deliver or lose.
func (s *Sender) Send(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	env, writer := s.Admit(to, env)
	if !writer {
		return nil
	}
	err := s.transmit(ctx, to, env)
	s.Drain(ctx, to)
	return err
}

// Admit stamps env with its route and offers it to the coalescer of the
// link to the peer. A true writer means the link was idle and the caller
// now owns it: it transmits the returned envelope, then calls Drain.
// Otherwise the envelope queued behind the write in flight, or — the queue
// being full — was lost and counted.
func (s *Sender) Admit(to proto.Addr, env proto.Envelope) (stamped proto.Envelope, writer bool) {
	env.From, env.To = s.addr, to
	writer, dropped := s.outbox(to).Admit(env)
	if dropped {
		s.count.lose(1)
	}
	return env, writer
}

// Drain flushes what queued on the link to the peer while its writer was
// transmitting, one frame per flush, until the queue is empty and the link
// idle. Each frame gets its own bounded context, detached from the
// writer's: the writer giving up must not lose what others queued. A frame
// refused here is lost and counted: its envelopes' Sends returned nil.
func (s *Sender) Drain(ctx context.Context, to proto.Addr) {
	s.outbox(to).Drain(s.addr, to, func(frame proto.Envelope) error {
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
		defer cancel()
		err := s.transmit(ctx, to, frame)
		if err != nil {
			n := int64(1)
			if batch, ok := frame.Body.(proto.EnvelopeBatch); ok {
				n = int64(len(batch.Envelopes))
			}
			s.count.lose(n)
		}
		return err
	})
}

// outbox returns (creating on first use) the coalescer of the link to a peer.
func (s *Sender) outbox(to proto.Addr) *Coalescer {
	s.mu.Lock()
	defer s.mu.Unlock()
	ob, ok := s.outboxes[to]
	if !ok {
		ob = &Coalescer{}
		s.outboxes[to] = ob
	}
	return ob
}

// transmit encodes one frame (a single envelope or a coalesced batch)
// and puts it on the link. The frame is counted before the substrate sees
// it, so nothing downstream ever runs ahead of Stats.Envelopes, and taken
// back when the substrate refuses it: an error means nothing went on the
// link.
func (s *Sender) transmit(ctx context.Context, to proto.Addr, frame proto.Envelope) error {
	buf := encPool.Get().(*bytes.Buffer)
	defer encPool.Put(buf)
	buf.Reset()
	for i := 0; i < s.reserve; i++ {
		buf.WriteByte(0)
	}
	if err := proto.EncodeTo(buf, frame); err != nil {
		return err
	}
	if n := buf.Len() - s.reserve; n > MaxFrame {
		return fmt.Errorf("transport: %s frame to %q is %d bytes, over the %d-byte limit", frame.Body.Kind(), to, n, MaxFrame)
	}
	envelopes := s.count.add(frame, 1)
	err := s.link(ctx, to, buf.Bytes(), envelopes)
	if err != nil {
		s.count.add(frame, -1)
	}
	return err
}

// Deliver is the read half, the same on every substrate: it decodes one
// frame and hands the handler its envelope or, in the order they were
// queued on the sending side, the members of a coalesced batch — a handler
// never sees a proto.EnvelopeBatch, and per-link FIFO passes through
// batching intact. The returned envelopes share no memory with frame. An
// error means the frame was corrupt and nothing was handed over.
func Deliver(h Handler, frame []byte) error {
	env, err := proto.Decode(frame)
	if err != nil {
		return err
	}
	if batch, ok := env.Body.(proto.EnvelopeBatch); ok {
		for _, inner := range batch.Envelopes {
			h(inner)
		}
		return nil
	}
	h(env)
	return nil
}
