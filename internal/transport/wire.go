package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"openwf/internal/proto"
)

// MaxFrame bounds one encoded frame (16 MiB). The sender refuses a larger
// one where that is knowable — after encoding, before anything is written —
// and a substrate that reads lengths off a wire uses the same bound to fail
// fast on a corrupted length prefix.
const MaxFrame = 16 << 20

// Counters is the accounting of the frames a Sender put on its links: how
// many, how many of them were requests, and how many the medium lost. A
// substrate owns one value — per endpoint (tcpnet) or
// shared by every endpoint of a simulated network (inmem) — and only adds
// the frames its medium loses.
type Counters struct {
	envelopes, calls, framesDropped atomic.Int64
}

// Stats returns a snapshot of the counters.
func (c *Counters) Stats() Stats {
	n := c.envelopes.Load()
	return Stats{
		Envelopes:     n,
		Frames:        n,
		Calls:         c.calls.Load(),
		FramesDropped: c.framesDropped.Load(),
	}
}

// FrameDropped records that the medium lost one frame the link function
// had accepted (returned nil for).
func (c *Counters) FrameDropped() { c.framesDropped.Add(1) }

// Reset zeroes the counters (between evaluation runs).
func (c *Counters) Reset() {
	for _, n := range []*atomic.Int64{&c.envelopes, &c.calls, &c.framesDropped} {
		n.Store(0)
	}
}

// add counts (sign 1) or takes back (sign -1) one frame, and the Call
// round trip it opens if it carries a request.
func (c *Counters) add(env proto.Envelope, sign int64) {
	c.envelopes.Add(sign)
	if proto.IsRequest(env.Body) {
		c.calls.Add(sign)
	}
}

// Link is what a substrate supplies on the write side: put one encoded
// frame on the link to a peer. The first reserve bytes of frame (see
// NewSender) are the substrate's to fill in; the slice is recycled when
// Link returns, so a substrate that keeps the bytes copies them. A nil
// return means the frame went on the link — to be delivered, or lost and
// counted by the substrate (Counters.FrameDropped); an error means nothing
// was written. Concurrent Sends call Link concurrently, even for one peer.
type Link func(ctx context.Context, to proto.Addr, frame []byte) error

// Sender is the write half of one endpoint, the same on every substrate:
// it stamps, encodes, bounds and counts a frame, and hands the bytes to
// the substrate's Link.
type Sender struct {
	addr    proto.Addr
	reserve int
	count   *Counters
	link    Link
}

// NewSender returns the sender of the endpoint at addr. Every frame is
// encoded after reserve zero bytes (the substrate's fixed header: tcpnet's
// length prefix) and accounted in count.
func NewSender(addr proto.Addr, reserve int, count *Counters, link Link) *Sender {
	return &Sender{addr: addr, reserve: reserve, count: count, link: link}
}

// encPool recycles encode buffers across sends: a substrate writes or
// copies the frame before its Link returns, so the grown backing array is
// reused and steady-state traffic stops churning the GC with per-envelope
// buffer growth.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Send is Endpoint.Send for any substrate: it stamps env with its route,
// encodes it and puts it on the link as its own frame before returning. A
// nil return means the frame reached the link; an error, that nothing was
// written and nothing counted.
func (s *Sender) Send(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	env.From, env.To = s.addr, to
	return s.transmit(ctx, to, env)
}

// transmit encodes one envelope and puts it on the link. The frame is
// counted before the substrate sees it, so nothing downstream ever runs
// ahead of Stats.Envelopes, and taken back when the substrate refuses it.
func (s *Sender) transmit(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	buf := encPool.Get().(*bytes.Buffer)
	defer encPool.Put(buf)
	buf.Reset()
	for i := 0; i < s.reserve; i++ {
		buf.WriteByte(0)
	}
	if err := proto.EncodeTo(buf, env); err != nil {
		return err
	}
	if n := buf.Len() - s.reserve; n > MaxFrame {
		return fmt.Errorf("transport: %s frame to %q is %d bytes, over the %d-byte limit", env.Body.Kind(), to, n, MaxFrame)
	}
	s.count.add(env, 1)
	err := s.link(ctx, to, buf.Bytes())
	if err != nil {
		s.count.add(env, -1)
	}
	return err
}

// Deliver is the read half, the same on every substrate: it decodes one
// frame and hands the handler its envelope, which shares no memory with
// frame. An error means the frame was corrupt and nothing was handed over.
func Deliver(h Handler, frame []byte) error {
	env, err := proto.Decode(frame)
	if err != nil {
		return err
	}
	h(env)
	return nil
}
