// Package tcpnet implements the communications layer over real TCP
// sockets. It stands in for the paper's empirical configuration (four
// laptops on an 802.11g ad hoc network): every host binds a loopback
// listener, a registry maps community addresses to socket addresses, and
// envelopes travel as length-prefixed frames of proto's binary wire
// codec. Unlike the simulated network it exercises real kernel sockets,
// framing, and scheduling.
package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/proto"
	"openwf/internal/transport"
)

// maxFrame bounds a single message frame (16 MiB) to fail fast on
// corrupted length prefixes.
const maxFrame = 16 << 20

// Transport is one host's TCP endpoint. Create with Listen, then provide
// the community registry with SetRegistry before sending.
type Transport struct {
	addr     proto.Addr
	handler  transport.Handler
	listener net.Listener

	mu       sync.Mutex
	registry map[proto.Addr]string
	conns    map[proto.Addr]net.Conn
	inbound  map[net.Conn]struct{}
	outboxes map[proto.Addr]*transport.Coalescer
	closed   bool

	wg sync.WaitGroup

	// Framing and round-trip counters mirroring inmem's accounting (see
	// transport.Stats): envelopes at frame granularity in transmit plus
	// overflow-dropped admits, calls by unwrapping coalesced batches,
	// framesDropped per lost frame — so daemon metrics read identically
	// off either substrate.
	envelopes     atomic.Int64
	frames        atomic.Int64
	batches       atomic.Int64
	calls         atomic.Int64
	framesDropped atomic.Int64
}

var _ transport.Reporter = (*Transport)(nil)

// Stats returns the transport's framing and round-trip counters.
func (t *Transport) Stats() transport.Stats {
	return transport.Stats{
		Envelopes:     t.envelopes.Load(),
		Frames:        t.frames.Load(),
		Batches:       t.batches.Load(),
		Calls:         t.calls.Load(),
		FramesDropped: t.framesDropped.Load(),
	}
}

// TransportStats implements transport.Reporter.
func (t *Transport) TransportStats() transport.Stats { return t.Stats() }

// drainDialTimeout bounds connection establishment for queued envelopes:
// they detached from their callers' contexts when they were accepted, so
// the drain loop supplies its own deadline — a blackholed peer costs one
// bounded dial per flush, never a wedged coalescer.
const drainDialTimeout = 10 * time.Second

var _ transport.Endpoint = (*Transport)(nil)

// Listen binds a listener on 127.0.0.1 (an OS-assigned port) for the given
// community address and starts accepting. It returns the transport and the
// socket address other hosts must register to reach it.
func Listen(addr proto.Addr, handler transport.Handler) (*Transport, string, error) {
	if handler == nil {
		return nil, "", fmt.Errorf("tcpnet: nil handler for %q", addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("tcpnet: listen: %w", err)
	}
	t := &Transport{
		addr:     addr,
		handler:  handler,
		listener: ln,
		registry: make(map[proto.Addr]string),
		conns:    make(map[proto.Addr]net.Conn),
		inbound:  make(map[net.Conn]struct{}),
		outboxes: make(map[proto.Addr]*transport.Coalescer),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, ln.Addr().String(), nil
}

// SetRegistry installs the community address book (host → "ip:port").
// It replaces any previous registry.
func (t *Transport) SetRegistry(reg map[proto.Addr]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.registry = make(map[proto.Addr]string, len(reg))
	for a, hp := range reg {
		t.registry[a] = hp
	}
}

// Addr implements transport.Endpoint.
func (t *Transport) Addr() proto.Addr { return t.addr }

// encPool recycles frame buffers across sends; the frame is written to
// the socket before the buffer returns to the pool, so no per-envelope
// byte slice escapes.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Send implements transport.Endpoint. Unknown or unreachable recipients
// lose the message silently, matching the wireless semantics of the
// abstract layer; local failures (closed transport, encoding, canceled
// context) error. The context bounds connection establishment: a
// canceled context aborts an in-flight dial promptly.
//
// Sends to one peer pass through a write-side coalescer
// (transport.Coalescer, shared with inmem): an envelope arriving while
// another write to the same peer is in flight is queued (bounded; a
// stalled peer drops the overflow like the lossy medium it models) and
// flushed by the busy sender as part of one EnvelopeBatch frame. Queued
// envelopes detach from their caller's context — like the wireless
// medium, once accepted they are the transport's to deliver or lose.
func (t *Transport) Send(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	env.From = t.addr
	env.To = to
	ob := t.outboxFor(to)
	writer, dropped := ob.Admit(env)
	if dropped {
		// Accepted then lost at the queue cap, like inmem's overflow
		// accounting: the envelope counts, but no frame ever existed to
		// count under FramesDropped.
		t.envelopes.Add(1)
		return nil
	}
	if !writer {
		return nil // queued for the busy writer to flush
	}
	err := t.transmit(ctx, to, env)
	t.drainOutbox(to, ob)
	return err
}

// outboxFor returns (creating on first use) the coalescer for a peer.
func (t *Transport) outboxFor(to proto.Addr) *transport.Coalescer {
	t.mu.Lock()
	defer t.mu.Unlock()
	ob, ok := t.outboxes[to]
	if !ok {
		ob = &transport.Coalescer{}
		t.outboxes[to] = ob
	}
	return ob
}

// drainOutbox flushes everything queued while the caller was writing,
// one EnvelopeBatch frame per flush, until the queue is empty. Each
// flush dials (if needed) under its own bounded context.
func (t *Transport) drainOutbox(to proto.Addr, ob *transport.Coalescer) {
	ob.Drain(t.addr, to, func(env proto.Envelope) error {
		ctx, cancel := context.WithTimeout(context.Background(), drainDialTimeout) //openwf:allow-background the drain out-lives the admitting writer's request ctx; the dial timeout bounds it instead
		defer cancel()
		return t.transmit(ctx, to, env)
	})
}

// transmit frames and writes one envelope (or coalesced batch) to the
// peer's connection.
func (t *Transport) transmit(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	buf := encPool.Get().(*bytes.Buffer)
	defer encPool.Put(buf)
	buf.Reset()
	// Reserve the frame's 4-byte length prefix, patched in after
	// encoding.
	var prefix [4]byte
	buf.Write(prefix[:])
	if err := proto.EncodeTo(buf, env); err != nil {
		return err
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))

	count, calls := transport.FrameCounts(env)
	t.envelopes.Add(count)
	t.frames.Add(1)
	if count > 1 {
		t.batches.Add(1)
	}
	t.calls.Add(calls)

	// Two attempts: a cached connection may have gone stale.
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.conn(ctx, to)
		if err != nil {
			t.framesDropped.Add(1)
			if errors.Is(err, errClosed) || ctx.Err() != nil {
				return err
			}
			return nil // unreachable: silent loss
		}
		if _, err := conn.Write(frame); err == nil {
			return nil
		}
		t.dropConn(to, conn)
	}
	t.framesDropped.Add(1)
	return nil
}

var errClosed = errors.New("tcpnet: transport closed")

// conn returns a cached or freshly dialed connection to a peer. The
// context cancels an in-flight dial.
func (t *Transport) conn(ctx context.Context, to proto.Addr) (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	hostport, ok := t.registry[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnet: no registry entry for %q", to)
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", hostport)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("tcpnet: dial %q: %w", to, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = c.Close()
		return nil, errClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Raced with another sender; keep the existing connection.
		t.mu.Unlock()
		_ = c.Close()
		return existing, nil
	}
	t.conns[to] = c
	t.mu.Unlock()
	return c, nil
}

func (t *Transport) dropConn(to proto.Addr, c net.Conn) {
	t.mu.Lock()
	if t.conns[to] == c {
		delete(t.conns, to)
	}
	t.mu.Unlock()
	_ = c.Close()
}

// Close implements transport.Endpoint.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns)+len(t.inbound))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.conns = make(map[proto.Addr]net.Conn)
	t.inbound = make(map[net.Conn]struct{})
	t.mu.Unlock()

	err := t.listener.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off an inbound connection and dispatches them to
// the handler sequentially (per-connection FIFO, matching TCP ordering).
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()
	var lenBuf [4]byte
	// data is reused across frames instead of allocated per frame: the
	// read loop is the only writer, and proto.Decode fully copies what it
	// keeps (TestDecodeCopiesInput in internal/proto pins that property),
	// so overwriting the buffer with the next frame cannot alias an
	// envelope already handed to the handler.
	var data []byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrame {
			return
		}
		if uint32(cap(data)) < n {
			data = make([]byte, n)
		}
		data = data[:n]
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		env, err := proto.Decode(data)
		if err != nil {
			continue // corrupt frame: drop, keep the connection
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		// A coalesced frame splits here without re-allocating: Decode
		// already produced the inner envelopes backed by the frame's one
		// string copy, so dispatching them is pure iteration, in queue
		// order (per-connection FIFO extends through batching).
		if batch, ok := env.Body.(proto.EnvelopeBatch); ok {
			for _, inner := range batch.Envelopes {
				t.handler(inner)
			}
			continue
		}
		t.handler(env)
	}
}
