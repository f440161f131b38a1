// Package tcpnet implements the communications layer over real TCP
// sockets. It stands in for the paper's empirical configuration (four
// laptops on an 802.11g ad hoc network): every host binds a loopback
// listener, a registry maps community addresses to socket addresses, and
// envelopes travel as length-prefixed frames of proto's binary wire
// codec. Unlike the simulated network it exercises real kernel sockets,
// framing, and scheduling.
//
// Each Send writes its frame to the peer's one cached connection in a single
// Write call, with no writer goroutine or queue in between. Concurrent Sends
// to one peer are safe because Go's runtime serialises concurrent Writes on
// one net.Conn (the internal/poll write lock), so frames never interleave on
// the stream. Each Write has a deadline, the context's or writeTimeout,
// whichever is earlier: a connected peer that stops reading costs a sender
// at most that wait, then the connection is dropped and the frame is lost
// silently, as on the medium.
package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"openwf/internal/proto"
	"openwf/internal/transport"
)

// prefixLen is the frame header the sender reserves and write fills in:
// the big-endian length of the encoded envelope that follows.
const prefixLen = 4

// writeTimeout bounds a Write whose context has no earlier deadline. It is
// the engine's default CallTimeout: a peer that stops reading costs a
// sender what a peer that stops answering costs a caller.
const writeTimeout = 5 * time.Second

// Transport is one host's TCP endpoint. Create with Listen, then provide
// the community registry with SetRegistry before sending.
type Transport struct {
	// Sender supplies Send. Unknown or unreachable recipients lose the
	// message silently, matching the wireless semantics of the abstract
	// layer; local failures (closed transport, encoding, an oversized frame,
	// canceled context) error and count nothing. The context bounds
	// connection establishment: a canceled context aborts an in-flight dial
	// promptly.
	*transport.Sender
	addr     proto.Addr
	handler  transport.Handler
	listener net.Listener
	wire     transport.Counters

	mu       sync.Mutex
	registry map[proto.Addr]string
	conns    map[proto.Addr]net.Conn
	inbound  map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// Stats returns the transport's framing and round-trip counters.
func (t *Transport) Stats() transport.Stats { return t.wire.Stats() }

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
	}
	t.Sender = transport.NewSender(addr, prefixLen, &t.wire, t.write)
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

// write is the transport.Link: it fills in the length prefix and writes
// the frame to the peer's connection in one call, by the deadline.
// Concurrent senders share the connection's one deadline, so a Write waits
// at most writeTimeout past the latest Send to the peer. A Write that times
// out loses its frame and the connection, which a partial frame has
// spoiled.
func (t *Transport) write(ctx context.Context, to proto.Addr, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-prefixLen))
	deadline := time.Now().Add(writeTimeout) //openwf:allow-wallclock kernel write deadlines are wall time
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	// Two attempts: a cached connection may have gone stale.
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.conn(ctx, to)
		if err != nil {
			if errors.Is(err, errClosed) || ctx.Err() != nil {
				return err
			}
			break // unreachable: silent loss
		}
		_ = conn.SetWriteDeadline(deadline) // fails only on a closed conn, as Write then does
		_, err = conn.Write(frame)
		if err == nil {
			return nil
		}
		t.dropConn(to, conn)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			break // a stalled peer: silent loss, no second connection
		}
	}
	t.wire.FrameDropped()
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
	var lenBuf [prefixLen]byte
	// data is reused across frames instead of allocated per frame: the
	// read loop is the only writer, and transport.Deliver hands over
	// envelopes that share nothing with it (TestDecodeCopiesInput in
	// internal/proto pins that property), so overwriting the buffer with
	// the next frame cannot alias an envelope already handed to the handler.
	var data []byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > transport.MaxFrame {
			return
		}
		if uint32(cap(data)) < n {
			data = make([]byte, n)
		}
		data = data[:n]
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		// A corrupt frame is dropped; the connection is kept.
		_ = transport.Deliver(t.handler, data)
	}
}
