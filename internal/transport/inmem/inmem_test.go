package inmem

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/testutil"
	"openwf/internal/transport"
)

// collector accumulates received envelopes.
type collector struct {
	mu   sync.Mutex
	got  []proto.Envelope
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handler(env proto.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, env)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// waitN blocks until n messages arrived or the timeout expires.
func (c *collector) waitN(t *testing.T, n int, timeout time.Duration) []proto.Envelope {
	t.Helper()
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: got %d messages, want %d", len(c.got), n)
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
		c.mu.Lock()
	}
	return append([]proto.Envelope(nil), c.got...)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// ping is a one-way envelope whose body decodes to no slice: a release.
// fixedLatency is a LinkModel with constant latency and no loss.
func fixedLatency(d time.Duration) LinkModel {
	return func(_, _ proto.Addr, _ int, _ *rand.Rand) (time.Duration, bool) {
		return d, false
	}
}

func ping(n int) proto.Envelope {
	return proto.Envelope{ReqID: uint64(n), Body: proto.Cancel{}}
}

func TestBasicDelivery(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	a, err := net.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	got := col.waitN(t, 1, time.Second)
	if got[0].From != "a" || got[0].To != "b" || got[0].ReqID != 1 {
		t.Errorf("envelope = %+v", got[0])
	}
	if got[0].Body.Kind() != "cancel" {
		t.Errorf("body kind = %q", got[0].Body.Kind())
	}
	if net.Messages() != 1 || net.Delivered() != 1 || net.Stats().FramesDropped != 0 {
		t.Errorf("counters = %d/%d/%d", net.Messages(), net.Delivered(), net.Stats().FramesDropped)
	}
}

func TestFIFOOrderPerLink(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := col.waitN(t, n, 5*time.Second)
	for i, env := range got {
		if env.ReqID != uint64(i) {
			t.Fatalf("message %d has ReqID %d: order violated", i, env.ReqID)
		}
	}
}

func TestFIFOOrderWithLatency(t *testing.T) {
	net := NewNetwork(WithLinkModel(fixedLatency(2 * time.Millisecond)))
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	const n = 50
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := col.waitN(t, n, 5*time.Second)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("delivery faster than link latency: %v", elapsed)
	}
	for i, env := range got {
		if env.ReqID != uint64(i) {
			t.Fatalf("message %d has ReqID %d: order violated under latency", i, env.ReqID)
		}
	}
}

func TestUnknownRecipientSilentDrop(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if err := a.Send(context.Background(), "ghost", ping(1)); err != nil {
		t.Fatalf("Send to unknown host errored: %v", err)
	}
	if net.Stats().FramesDropped != 1 {
		t.Errorf("FramesDropped = %d, want 1", net.Stats().FramesDropped)
	}
}

func TestPartition(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	colB := newCollector()
	colC := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", colB.handler); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("c", colC.handler); err != nil {
		t.Fatal(err)
	}
	net.SetPartition([]proto.Addr{"a", "b"}, []proto.Addr{"c"})
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "c", ping(2)); err != nil {
		t.Fatal(err)
	}
	colB.waitN(t, 1, time.Second)
	time.Sleep(10 * time.Millisecond)
	if colC.count() != 0 {
		t.Error("message crossed the partition")
	}
	// Heal and retry.
	net.SetPartition()
	if err := a.Send(context.Background(), "c", ping(3)); err != nil {
		t.Fatal(err)
	}
	colC.waitN(t, 1, time.Second)
}

func TestPartitionIsolatesUnlistedHosts(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	net.SetPartition([]proto.Addr{"a"}) // b unlisted → isolated
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if col.count() != 0 {
		t.Error("unlisted host received message during partition")
	}
}

// TestLossyModel: a link model's loss verdict drops the message.
func TestLossyModel(t *testing.T) {
	lossy := func(_, _ proto.Addr, _ int, _ *rand.Rand) (time.Duration, bool) { return 0, true }
	net := NewNetwork(WithLinkModel(lossy), WithSeed(7))
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(context.Background(), "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if col.count() != 0 {
		t.Errorf("lossy model delivered %d messages", col.count())
	}
	if net.Stats().FramesDropped != 10 {
		t.Errorf("FramesDropped = %d, want 10", net.Stats().FramesDropped)
	}
}

func TestWirelessModelLatencyScalesWithSize(t *testing.T) {
	model := Wireless(time.Millisecond, 0, 1e6) // 1 Mbit/s
	small, _ := model("a", "b", 125, nil)       // 1000 bits → 1ms serialization
	big, _ := model("a", "b", 1250, nil)        // 10000 bits → 10ms
	if small != 2*time.Millisecond {
		t.Errorf("small latency = %v, want 2ms", small)
	}
	if big != 11*time.Millisecond {
		t.Errorf("big latency = %v, want 11ms", big)
	}
}

// TestMailboxFIFOAcrossDrains: the mailbox pops by a head index and
// rewinds to the start of its array once drained (each item is tagged by
// its epoch field). Pushes and pops
// interleaved across those rewinds keep FIFO order, going dark returns
// exactly the items not yet popped, and a queue that never drains slides
// down its array rather than growing it.
func TestMailboxFIFOAcrossDrains(t *testing.T) {
	m := newMailbox()
	pushed := uint64(0)
	push := func(k int) {
		t.Helper()
		for range k {
			pushed++
			if !m.push(delivery{epoch: pushed}) {
				t.Fatalf("push %d refused", pushed)
			}
		}
	}
	pop := func(want ...uint64) {
		t.Helper()
		for _, w := range want {
			if d, ok := m.pop(); !ok || d.epoch != w {
				t.Fatalf("pop = %d (ok %v), want %d", d.epoch, ok, w)
			}
		}
	}
	dark := func(want ...uint64) {
		t.Helper()
		var got []uint64
		for _, d := range m.setDark(true) {
			got = append(got, d.epoch)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("setDark returned %v, want %v", got, want)
		}
		m.setDark(false)
	}
	push(3)
	pop(1, 2)
	push(2)
	pop(3, 4, 5)
	push(1)
	dark(6)
	push(3)
	pop(7)
	dark(8, 9)
	push(2)
	for i := uint64(12); i < 1000; i++ {
		push(1)
		pop(i - 2)
	}
	if c := cap(m.items); c > 8 {
		t.Fatalf("a queue two items long holds an array of %d", c)
	}
}

// TestSendToHandlerAllocBound pins a one-way envelope's trip from Send to
// the recipient's handler: what is left is the decoded envelope's strings
// and boxed body. The frame's copy and its mailbox slot come back from the
// envelope before; at the parent of this bound they cost one allocation
// each (4 in all).
func TestSendToHandlerAllocBound(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	got := make(chan struct{})
	if _, err := n.Endpoint("b", func(proto.Envelope) { got <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	env := ping(1)
	testutil.AllocBound(t, 2, func() {
		if err := a.Send(context.Background(), "b", env); err != nil {
			t.Fatal(err)
		}
		<-got
	})
}

// TestDelayedFrameAllocBound pins the same trip over a link whose model
// charges latency: the link's delay line waits on one timer it re-arms for
// every frame, so the wait adds nothing to TestSendToHandlerAllocBound's 2.
// At the parent of this bound each wait made a timer and its channel.
func TestDelayedFrameAllocBound(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	n := NewNetwork(WithClock(sim), WithLinkModel(fixedLatency(time.Millisecond)))
	defer n.Close()
	got := make(chan struct{})
	if _, err := n.Endpoint("b", func(proto.Envelope) { got <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	env := ping(1)
	testutil.AllocBound(t, 2, func() {
		if err := a.Send(context.Background(), "b", env); err != nil {
			t.Fatal(err)
		}
		for sim.PendingWaiters() == 0 {
			runtime.Gosched() // the delay line has not started its wait yet
		}
		sim.Advance(time.Millisecond)
		<-got
	})
}

func TestDuplicateAddressRejected(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	if _, err := net.Endpoint("a", func(proto.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("a", func(proto.Envelope) {}); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := net.Endpoint("b", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestSendAfterNetworkClose(t *testing.T) {
	net := NewNetwork()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "a", ping(1)); err == nil {
		t.Error("Send on closed network succeeded")
	}
	if _, err := net.Endpoint("x", func(proto.Envelope) {}); err == nil {
		t.Error("Endpoint on closed network succeeded")
	}
	// Double close is fine.
	if err := net.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestEndpointClose(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	b, _ := net.Endpoint("b", col.handler)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if col.count() != 0 {
		t.Error("closed endpoint received message")
	}
	if net.Stats().FramesDropped == 0 {
		t.Error("drop not counted for closed endpoint")
	}
}

func TestResetCounters(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	col.waitN(t, 1, time.Second)
	net.ResetCounters()
	if net.Messages() != 0 || net.Delivered() != 0 {
		t.Error("counters not reset")
	}
}

func TestHandlerMaySend(t *testing.T) {
	// A handler that replies must not deadlock.
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	var b transport.Endpoint
	a, err := net.Endpoint("a", col.handler)
	if err != nil {
		t.Fatal(err)
	}
	b, err = net.Endpoint("b", func(env proto.Envelope) {
		_ = b.Send(context.Background(), env.From, proto.Envelope{ReqID: env.ReqID + 1, Body: proto.Cancel{Tasks: []model.TaskID{"t"}}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	got := col.waitN(t, 1, time.Second)
	if got[0].ReqID != 2 {
		t.Errorf("reply ReqID = %d, want 2", got[0].ReqID)
	}
}

func TestConcurrentSenders(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	col := newCollector()
	if _, err := net.Endpoint("sink", col.handler); err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := net.Endpoint(proto.Addr(fmt.Sprintf("s%d", s)), func(proto.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(context.Background(), "sink", ping(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	col.waitN(t, senders*each, 5*time.Second)
}

func TestStoreAndForwardAcrossPartition(t *testing.T) {
	net := NewNetwork(WithStoreAndForward(true))
	defer net.Close()
	col := newCollector()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	net.SetPartition([]proto.Addr{"a"}, []proto.Addr{"b"})
	for i := 0; i < 5; i++ {
		if err := a.Send(context.Background(), "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("messages crossed an active partition")
	}
	if net.Stats().FramesDropped != 0 {
		t.Fatalf("FramesDropped = %d with store-and-forward", net.Stats().FramesDropped)
	}
	// Heal: buffered messages arrive, in order.
	net.SetPartition()
	got := col.waitN(t, 5, time.Second)
	for i, env := range got {
		if env.ReqID != uint64(i) {
			t.Fatalf("message %d has ReqID %d: order lost across partition", i, env.ReqID)
		}
	}
}

func TestStoreAndForwardLateJoiner(t *testing.T) {
	net := NewNetwork(WithStoreAndForward(true))
	defer net.Close()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	// b does not exist yet.
	if err := a.Send(context.Background(), "b", ping(7)); err != nil {
		t.Fatal(err)
	}
	if net.Stats().FramesDropped != 0 {
		t.Fatalf("FramesDropped = %d with store-and-forward", net.Stats().FramesDropped)
	}
	col := newCollector()
	if _, err := net.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	got := col.waitN(t, 1, time.Second)
	if got[0].ReqID != 7 {
		t.Errorf("ReqID = %d", got[0].ReqID)
	}
}

func TestStoreAndForwardDisabledByDefault(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a, _ := net.Endpoint("a", func(proto.Envelope) {})
	if err := a.Send(context.Background(), "ghost", ping(1)); err != nil {
		t.Fatal(err)
	}
	if net.Stats().FramesDropped != 1 {
		t.Errorf("FramesDropped = %d", net.Stats().FramesDropped)
	}
}

// --- one frame per envelope ---

// TestCoalescerSingleEntryStaysUnbatched: a lone envelope travels as its
// own frame — no batch, no added latency.
func TestCoalescerSingleEntryStaysUnbatched(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	recv := newCollector()
	if _, err := n.Endpoint("b", recv.handler); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	recv.waitN(t, 1, time.Second)
	st := n.Stats()
	if st.Envelopes != 1 || st.Frames != 1 || st.Batches != 0 {
		t.Fatalf("Stats = %+v, want one plain frame", st)
	}
}

// TestStatsCountsCallRoundTrips: request bodies (queries, calls for
// bids, awards) count as Calls; replies and one-way messages do not.
func TestStatsCountsCallRoundTrips(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	recv := newCollector()
	if _, err := n.Endpoint("b", recv.handler); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	sends := []proto.Envelope{
		{ReqID: 1, Body: proto.FragmentQuery{Labels: nil}}, // request
		{ReqID: 2, Body: proto.CallForBidsBatch{}},         // request
		{ReqID: 2, Body: proto.BidBatch{}},                 // reply
		{Body: proto.Cancel{Tasks: []model.TaskID{"t"}}},   // one-way
	}
	for _, env := range sends {
		if err := a.Send(context.Background(), "b", env); err != nil {
			t.Fatal(err)
		}
	}
	recv.waitN(t, len(sends), time.Second)
	if st := n.Stats(); st.Calls != 2 {
		t.Fatalf("Stats.Calls = %d, want 2 (requests only); full stats %+v", st.Calls, st)
	}
	n.ResetCounters()
	if st := n.Stats(); st != (Stats{}) {
		t.Fatalf("Stats after reset = %+v", st)
	}
}

// TestCoalescerConcurrentSendersDeliverAll: hammering one link from many
// goroutines loses nothing, each sender's envelopes arrive in the order it
// sent them, and each travels as its own frame.
func TestCoalescerConcurrentSendersDeliverAll(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	recv := newCollector()
	if _, err := n.Endpoint("b", recv.handler); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_ = a.Send(context.Background(), "b", ping(s*each+i))
			}
		}(s)
	}
	wg.Wait()
	next := make([]int, senders) // per sender, the index it sends next
	for _, env := range recv.waitN(t, senders*each, 5*time.Second) {
		s, i := int(env.ReqID)/each, int(env.ReqID)%each
		if i != next[s] {
			t.Fatalf("sender %d: envelope %d arrived where %d was due", s, i, next[s])
		}
		next[s]++
	}
	want := Stats{Envelopes: senders * each, Frames: senders * each}
	if st := n.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}
