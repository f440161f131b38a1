package tcpnet

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"openwf/internal/proto"
	"openwf/internal/transport"
)

type collector struct {
	mu  sync.Mutex
	got []proto.Envelope
}

func (c *collector) handler(env proto.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, env)
	c.mu.Unlock()
}

func (c *collector) waitN(t *testing.T, n int, timeout time.Duration) []proto.Envelope {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if len(c.got) >= n {
			out := append([]proto.Envelope(nil), c.got...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			c.mu.Lock()
			defer c.mu.Unlock()
			t.Fatalf("timeout: got %d messages, want %d", len(c.got), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func ping(n int) proto.Envelope {
	return proto.Envelope{ReqID: uint64(n), Body: proto.Cancel{Task: "t"}}
}

// pair builds two connected transports with registries installed.
func pair(t *testing.T) (*Transport, *Transport, *collector, *collector) {
	t.Helper()
	colA, colB := &collector{}, &collector{}
	ta, hpA, err := Listen("a", colA.handler)
	if err != nil {
		t.Fatal(err)
	}
	tb, hpB, err := Listen("b", colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	reg := map[proto.Addr]string{"a": hpA, "b": hpB}
	ta.SetRegistry(reg)
	tb.SetRegistry(reg)
	t.Cleanup(func() {
		_ = ta.Close()
		_ = tb.Close()
	})
	return ta, tb, colA, colB
}

func TestRoundTrip(t *testing.T) {
	ta, tb, colA, colB := pair(t)
	if ta.Addr() != "a" || tb.Addr() != "b" {
		t.Fatal("bad addrs")
	}
	if err := ta.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	got := colB.waitN(t, 1, 2*time.Second)
	if got[0].From != "a" || got[0].To != "b" || got[0].ReqID != 1 {
		t.Errorf("envelope = %+v", got[0])
	}
	// Reply path.
	if err := tb.Send(context.Background(), "a", ping(2)); err != nil {
		t.Fatal(err)
	}
	gotA := colA.waitN(t, 1, 2*time.Second)
	if gotA[0].ReqID != 2 {
		t.Errorf("reply = %+v", gotA[0])
	}
}

func TestOrderPreservedPerSender(t *testing.T) {
	ta, _, _, colB := pair(t)
	const n = 100
	for i := 0; i < n; i++ {
		if err := ta.Send(context.Background(), "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := colB.waitN(t, n, 5*time.Second)
	for i, env := range got {
		if env.ReqID != uint64(i) {
			t.Fatalf("message %d has ReqID %d", i, env.ReqID)
		}
	}
}

// TestReusedReadBufferDoesNotAlias sends a stream of frames with
// distinct, differently-sized payloads down one connection. readLoop
// reuses its frame buffer, so if proto.Decode ever kept a reference into
// it, an earlier envelope's payload (or string fields) would be
// overwritten by a later frame — the deep checks here would catch it.
func TestReusedReadBufferDoesNotAlias(t *testing.T) {
	ta, _, _, colB := pair(t)
	const n = 200
	payload := func(i int) []byte {
		// Vary both content and length so a reused buffer shrinks and
		// grows across frames.
		p := make([]byte, 1+(i*7)%100)
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}
	for i := 0; i < n; i++ {
		if err := ta.Send(context.Background(), "b", proto.Envelope{
			ReqID:    uint64(i),
			Workflow: "wf",
			Body: proto.LabelTransfer{
				Label:    "lbl",
				Data:     payload(i),
				Producer: "a",
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := colB.waitN(t, n, 5*time.Second)
	for i, env := range got {
		lt, ok := env.Body.(proto.LabelTransfer)
		if !ok {
			t.Fatalf("message %d body = %T", i, env.Body)
		}
		if env.ReqID != uint64(i) || lt.Label != "lbl" || lt.Producer != "a" {
			t.Fatalf("message %d mangled: %+v", i, env)
		}
		want := payload(i)
		if string(lt.Data) != string(want) {
			t.Fatalf("message %d payload corrupted:\ngot  %v\nwant %v", i, lt.Data, want)
		}
	}
}

func TestUnknownRecipientSilentLoss(t *testing.T) {
	ta, _, _, _ := pair(t)
	if err := ta.Send(context.Background(), "ghost", ping(1)); err != nil {
		t.Errorf("Send to unregistered host errored: %v", err)
	}
}

func TestDeadPeerSilentLoss(t *testing.T) {
	ta, tb, _, _ := pair(t)
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	// Give the OS a moment to tear the listener down.
	time.Sleep(10 * time.Millisecond)
	if err := ta.Send(context.Background(), "b", ping(1)); err != nil {
		t.Errorf("Send to dead peer errored: %v", err)
	}
}

func TestSendAfterCloseErrors(t *testing.T) {
	ta, _, _, _ := pair(t)
	if err := ta.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(context.Background(), "b", ping(1)); err == nil {
		t.Error("Send on closed transport succeeded")
	}
	// The caller was told: a refused write is not a frame lost on the
	// medium, and counts nowhere.
	if st := ta.Stats(); st != (transport.Stats{}) {
		t.Errorf("Stats after a refused send = %+v, want all zero", st)
	}
	// Double close is fine.
	if err := ta.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestOversizedFrameRefusedBeforeTheWire: a frame over transport.MaxFrame
// is a local failure, known once it is encoded. The sender errors and
// counts nothing, and nothing is written — so the receiver never sees a
// length it must refuse, and the connection carrying the frames before it
// carries the frames after it.
func TestOversizedFrameRefusedBeforeTheWire(t *testing.T) {
	ta, _, _, colB := pair(t)
	ctx := context.Background()
	if err := ta.Send(ctx, "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	colB.waitN(t, 1, 2*time.Second)
	cached := func() net.Conn {
		ta.mu.Lock()
		defer ta.mu.Unlock()
		return ta.conns["b"]
	}
	conn := cached()
	big := proto.Envelope{ReqID: 2, Body: proto.LabelTransfer{Label: "l", Data: make([]byte, transport.MaxFrame+1)}}
	if err := ta.Send(ctx, "b", big); err == nil {
		t.Error("Send of a frame over MaxFrame succeeded")
	}
	for i := 3; i <= 5; i++ {
		if err := ta.Send(ctx, "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := colB.waitN(t, 4, 2*time.Second)
	for i, want := range []uint64{1, 3, 4, 5} {
		if got[i].ReqID != want {
			t.Fatalf("envelope %d has ReqID %d, want %d", i, got[i].ReqID, want)
		}
	}
	if now := cached(); now != conn {
		t.Errorf("connection to b replaced (%v → %v): the oversized frame reached the wire", conn, now)
	}
	if st := ta.Stats(); st.Frames != 4 || st.FramesDropped != 0 {
		t.Errorf("Stats = %+v, want 4 frames, none dropped", st)
	}
}

func TestStaleConnectionRetried(t *testing.T) {
	colA := &collector{}
	ta, hpA, err := Listen("a", colA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()

	colB := &collector{}
	tb, hpB, err := Listen("b", colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	reg := map[proto.Addr]string{"a": hpA, "b": hpB}
	ta.SetRegistry(reg)
	tb.SetRegistry(reg)

	if err := ta.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	colB.waitN(t, 1, 2*time.Second)

	// Restart b on a new port; a's cached connection is now stale.
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	colB2 := &collector{}
	tb2, hpB2, err := Listen("b", colB2.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	reg["b"] = hpB2
	ta.SetRegistry(reg)

	// First send may hit the stale socket; the retry must succeed —
	// allow the kernel a few tries to surface the broken pipe.
	deadline := time.Now().Add(2 * time.Second)
	for colB2.count() == 0 && time.Now().Before(deadline) {
		if err := ta.Send(context.Background(), "b", ping(2)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if colB2.count() == 0 {
		t.Fatal("message never reached restarted peer")
	}
}

func TestConcurrentSendersOneReceiver(t *testing.T) {
	colSink := &collector{}
	sink, hpSink, err := Listen("sink", colSink.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	reg := map[proto.Addr]string{"sink": hpSink}

	const senders, each = 4, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		tr, _, err := Listen(proto.Addr(rune('A'+s)), func(proto.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		tr.SetRegistry(reg)
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := tr.Send(context.Background(), "sink", ping(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(tr)
	}
	wg.Wait()
	colSink.waitN(t, senders*each, 5*time.Second)
}

func TestNilHandlerRejected(t *testing.T) {
	if _, _, err := Listen("x", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

// --- one frame per envelope ---

// TestStatsCounters pins the framing accounting against inmem's
// semantics: one frame per envelope, calls per request, no batches, and
// framesDropped per lost frame.
func TestStatsCounters(t *testing.T) {
	ta, _, _, colB := pair(t)
	if err := ta.Send(context.Background(), "b", proto.Envelope{
		ReqID: 1, Body: proto.FragmentQuery{},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ta.Send(context.Background(), "b", ping(2)); err != nil {
		t.Fatal(err)
	}
	colB.waitN(t, 2, 2*time.Second)
	st := ta.Stats()
	if st.Envelopes != 2 || st.Frames != 2 || st.Batches != 0 {
		t.Errorf("after 2 sequential sends: %+v", st)
	}
	if st.Calls != 1 {
		t.Errorf("Calls = %d, want 1 (only FragmentQuery is a request)", st.Calls)
	}
	if st.FramesDropped != 0 {
		t.Errorf("FramesDropped = %d at idle", st.FramesDropped)
	}

	// Unreachable recipient: the frame is framed, then silently lost.
	if err := ta.Send(context.Background(), "ghost", ping(3)); err != nil {
		t.Fatal(err)
	}
	st = ta.Stats()
	if st.Envelopes != 3 || st.Frames != 3 || st.FramesDropped != 1 {
		t.Errorf("after ghost send: %+v", st)
	}
}

// TestCoalescerConcurrentSendersDeliverAll: many goroutines writing to
// one peer over its one connection lose nothing, and each sender's
// envelopes arrive in the order it sent them — concurrent Writes on a
// net.Conn never interleave two frames.
func TestCoalescerConcurrentSendersDeliverAll(t *testing.T) {
	ta, _, _, colB := pair(t)
	const senders, each = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = ta.Send(context.Background(), "b", ping(s*each+i))
			}
		}(s)
	}
	wg.Wait()
	next := make([]int, senders) // per sender, the index it sends next
	for _, env := range colB.waitN(t, senders*each, 5*time.Second) {
		s, i := int(env.ReqID)/each, int(env.ReqID)%each
		if i != next[s] {
			t.Fatalf("sender %d: envelope %d arrived where %d was due", s, i, next[s])
		}
		next[s]++
	}
	want := transport.Stats{Envelopes: senders * each, Frames: senders * each}
	if st := ta.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

// TestSendToStalledPeerReturns: a peer that accepts a connection and never
// reads it fills the kernel's buffers, and then each Send waits for its
// context's deadline at most: the frame is dropped, counted, and the
// connection with it. A live peer is still reached afterwards.
func TestSendToStalledPeerReturns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var stalled []net.Conn // accepted and never read
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			stalled = append(stalled, c)
			mu.Unlock()
		}
	}()
	ta, _, _, colB := pair(t)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range stalled {
			_ = c.Close()
		}
	})
	ta.mu.Lock()
	ta.registry["stall"] = ln.Addr().String()
	ta.mu.Unlock()

	const wait, slack = 100 * time.Millisecond, 2 * time.Second
	frame := proto.Envelope{Body: proto.LabelTransfer{Label: "l", Data: make([]byte, 4<<10)}}
	for i := 0; ta.Stats().FramesDropped == 0; i++ {
		if i == 1<<15 { // 128 MiB: far past any loopback buffer
			t.Fatalf("%d Sends to a peer that never reads all returned without a drop", i)
		}
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		done := make(chan error, 1)
		go func() { done <- ta.Send(ctx, "stall", frame) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Send %d to the stalled peer: %v", i, err)
			}
		case <-time.After(wait + slack):
			t.Fatalf("Send %d to the stalled peer still blocked after %v", i, wait+slack)
		}
		cancel()
	}
	if err := ta.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	colB.waitN(t, 1, 2*time.Second)
}
