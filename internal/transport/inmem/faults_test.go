package inmem

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/transport"
)

// --- crash/restart fault model (PR 6) ---

// crashed reports whether a host is currently dark.
func crashed(n *Network, addr proto.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[addr]
}

// TestCrashGoesDarkAndRestartHeals: frames to a crashed host drop (never
// stored), its own sends fail loudly, and Restart restores plain delivery
// without replaying anything.
func TestCrashGoesDarkAndRestartHeals(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	colA, colB := newCollector(), newCollector()
	a, err := n.Endpoint("a", colA.handler)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b", colB.handler)
	if err != nil {
		t.Fatal(err)
	}
	n.Crash("b")
	if !crashed(n, "b") || crashed(n, "a") {
		t.Fatal("crash flag wrong")
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatalf("send to crashed host must be silent loss, got %v", err)
	}
	if err := b.Send(context.Background(), "a", ping(2)); err == nil {
		t.Fatal("send from crashed host succeeded")
	}
	if got := n.Stats().FramesDropped; got != 1 {
		t.Fatalf("FramesDropped = %d, want 1 (the frame to the dark host)", got)
	}
	if st := n.Stats(); st.FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want 1", st.FramesDropped)
	}
	n.restart("b")
	if crashed(n, "b") {
		t.Fatal("restart did not clear the crash flag")
	}
	if err := a.Send(context.Background(), "b", ping(3)); err != nil {
		t.Fatal(err)
	}
	got := colB.waitN(t, 1, time.Second)
	if got[0].ReqID != 3 {
		t.Fatalf("post-restart delivery = %+v, want only the fresh frame (no replay)", got[0])
	}
	if err := b.Send(context.Background(), "a", ping(4)); err != nil {
		t.Fatal(err)
	}
	colA.waitN(t, 1, time.Second)
}

// TestCrashPurgesQueuedInbox: messages accepted but not yet handled are
// lost with the host; the message being handled at crash time completes
// (a real device finishes its current instruction before the power dies).
func TestCrashPurgesQueuedInbox(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	col := newCollector()
	if _, err := n.Endpoint("b", func(env proto.Envelope) {
		col.handler(env)
		if env.ReqID == 1 {
			close(started)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	<-started // handler is now busy with #1
	for i := 2; i <= 4; i++ {
		if err := a.Send(context.Background(), "b", ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	n.Crash("b")
	close(release)
	n.restart("b")
	if err := a.Send(context.Background(), "b", ping(5)); err != nil {
		t.Fatal(err)
	}
	got := col.waitN(t, 2, time.Second)
	if got[0].ReqID != 1 || got[1].ReqID != 5 {
		t.Fatalf("delivered = %+v, want [1 5] (queued 2–4 purged by the crash)", got)
	}
	if n.Stats().FramesDropped != 3 {
		t.Fatalf("FramesDropped = %d, want the 3 purged envelopes", n.Stats().FramesDropped)
	}
}

// TestCrashDropsInFlightLatencyFrames: a frame sitting in a link's delay
// line when its recipient dies is lost at delivery time, not delivered to
// the restarted host.
func TestCrashDropsInFlightLatencyFrames(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC))
	n := NewNetwork(WithClock(sim), WithLinkModel(fixedLatency(time.Second)))
	defer n.Close()
	col := newCollector()
	if _, err := n.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", ping(1)); err != nil {
		t.Fatal(err)
	}
	n.Crash("b")
	n.restart("b") // revived before the frame's due time — still lost (epoch moved)
	sim.Advance(2 * time.Second)
	if err := a.Send(context.Background(), "b", ping(2)); err != nil {
		t.Fatal(err)
	}
	sim.Advance(2 * time.Second)
	got := col.waitN(t, 1, time.Second)
	if got[0].ReqID != 2 {
		t.Fatalf("delivered = %+v, want only the post-restart frame", got)
	}
	if n.Stats().FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want the in-flight frame", n.Stats().FramesDropped)
	}
}

// TestScheduleFaultsFiresOnVirtualClock: a scripted schedule of crash,
// partition, heal, and restart fires in order as virtual time advances,
// reporting each applied fault to the notify callback.
func TestScheduleFaultsFiresOnVirtualClock(t *testing.T) {
	sim := clock.NewSim(time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC))
	n := NewNetwork(WithClock(sim))
	defer n.Close()
	col := newCollector()
	if _, err := n.Endpoint("b", col.handler); err != nil {
		t.Fatal(err)
	}
	a, err := n.Endpoint("a", func(proto.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	var fired []FaultKind
	n.ScheduleFaults([]Fault{
		{At: time.Second, Kind: FaultCrash, Host: "b"},
		{At: 2 * time.Second, Kind: FaultRestart, Host: "b"},
		{At: 3 * time.Second, Kind: FaultPartition, Groups: [][]proto.Addr{{"a"}, {"b"}}},
		{At: 4 * time.Second, Kind: FaultHeal},
	}, func(f Fault) { fired = append(fired, f.Kind) })

	send := func(id int) {
		t.Helper()
		if err := a.Send(context.Background(), "b", ping(id)); err != nil {
			t.Fatal(err)
		}
	}
	send(1) // before any fault: delivered
	col.waitN(t, 1, time.Second)
	sim.Advance(1500 * time.Millisecond)
	send(2) // crashed: lost
	sim.Advance(time.Second)
	send(3) // restarted: delivered
	col.waitN(t, 2, time.Second)
	sim.Advance(time.Second)
	send(4) // partitioned: lost
	sim.Advance(time.Second)
	send(5) // healed: delivered

	got := col.waitN(t, 3, time.Second)
	want := []uint64{1, 3, 5}
	for i, env := range got {
		if env.ReqID != want[i] {
			t.Fatalf("delivered ReqIDs = %v, want %v", got, want)
		}
	}
	wantFired := []FaultKind{FaultCrash, FaultRestart, FaultPartition, FaultHeal}
	if len(fired) != len(wantFired) {
		t.Fatalf("fired = %v, want %v", fired, wantFired)
	}
	for i := range fired {
		if fired[i] != wantFired[i] {
			t.Fatalf("fired = %v, want %v", fired, wantFired)
		}
	}
}

// TestCrashRacingSenders: several senders hammer one recipient while it is
// crashed and restarted in a loop. This is the guarantee the mailbox dark
// flag exists for — a sender decides under the network lock but pushes
// after releasing it, so a frame routed just before a Crash arrives at the
// inbox just after the purge.
//
// Every envelope carries the phase it was sent in, odd while the recipient
// is known crashed; the phase flips only with every in-flight Send drained,
// so an odd envelope was routed entirely between Crash returning and
// Restart being called and must never reach the handler. Each round stalls
// the recipient's pump in its handler before the crash, so a frame that
// slipped past the purge would still be sitting in the inbox when the
// round looks: the inbox must stay empty while the host is dark, the
// handler's count of deliveries may move only by the one frame the pump had
// already popped, and at quiescence every accepted envelope is accounted
// for.
func TestCrashRacingSenders(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	var (
		phase   atomic.Uint64
		sending sync.RWMutex // held shared across each stamp-and-Send
		gate    sync.RWMutex // held exclusively to stall b's pump in its handler
		// delivered counts the envelopes handed to b's handler, before the
		// gate stalls it.
		delivered atomic.Int64
	)
	flip := func() {
		sending.Lock()
		phase.Add(1)
		sending.Unlock()
	}
	b, err := n.Endpoint("b", func(env proto.Envelope) {
		delivered.Add(1)
		gate.RLock()
		defer gate.RUnlock()
		if env.ReqID%2 == 1 {
			t.Errorf("handler got an envelope sent in crash phase %d", env.ReqID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	inbox := b.(*endpoint).box
	queued := func() int {
		inbox.mu.Lock()
		defer inbox.mu.Unlock()
		return len(inbox.items)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		// One sender per link; every envelope is its own frame, so each
		// Send has made its delivery decision by the time it returns.
		ep, err := n.Endpoint(proto.Addr(fmt.Sprintf("a%d", i)), func(proto.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sending.RLock()
				err := ep.Send(context.Background(), "b", proto.Envelope{ReqID: phase.Load(), Body: proto.Cancel{Tasks: []model.TaskID{"t"}}})
				sending.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // on one CPU a hot loop would hold each round for a preemption quantum
			}
		}()
	}
	// progress returns once the senders have pushed 100 more envelopes.
	progress := func() {
		for m := n.Stats().Envelopes + 100; n.Stats().Envelopes < m; {
			runtime.Gosched()
		}
	}
	for round := 0; round < 50; round++ {
		progress()
		gate.Lock()
		progress() // the inbox fills behind the stalled pump
		n.Crash("b")
		flip()
		before := delivered.Load()
		progress()
		stray, late := queued(), delivered.Load()-before
		gate.Unlock()
		if stray != 0 || late > 1 {
			t.Errorf("round %d: while b was crashed its inbox held %d frames and deliveries moved by %d", round, stray, late)
			break // the senders must be stopped before the test may end
		}
		flip()
		n.restart("b")
	}
	close(stop)
	wg.Wait()
	n.restart("b")
	for deadline := time.Now().Add(time.Second); delivered.Load()+n.Stats().FramesDropped != n.Stats().Envelopes; {
		if time.Now().After(deadline) {
			t.Fatalf("envelopes = %d, delivered + dropped = %d + %d", n.Stats().Envelopes, delivered.Load(), n.Stats().FramesDropped)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- lone frames under loss (PR 6 satellite) ---

// sendAll sends ids from a to to, one frame each.
func sendAll(t *testing.T, a *endpoint, to proto.Addr, ids ...int) {
	t.Helper()
	for _, id := range ids {
		if err := a.Send(context.Background(), to, ping(id)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchFrameLossIsAllOrNothing: every envelope travels as its own
// frame, so a lost frame loses exactly one envelope and counts once, in
// FramesDropped and in Dropped, for both the per-link fault model and a
// crashed recipient; after the heal, frames arrive whole and in order.
func TestBatchFrameLossIsAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(n *Network)
		heal   func(n *Network)
	}{
		{
			name:   "link-loss",
			inject: func(n *Network) { n.SetLinkLoss("a", "b", 1) },
			heal:   func(n *Network) { n.SetLinkLoss("a", "b", 0) },
		},
		{
			name:   "crashed-recipient",
			inject: func(n *Network) { n.Crash("b") },
			heal:   func(n *Network) { n.restart("b") },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork()
			defer n.Close()
			col := newCollector()
			if _, err := n.Endpoint("b", col.handler); err != nil {
				t.Fatal(err)
			}
			epA, err := n.Endpoint("a", func(proto.Envelope) {})
			if err != nil {
				t.Fatal(err)
			}
			a := epA.(*endpoint)
			tc.inject(n)
			sendAll(t, a, "b", 1, 2, 3)
			if got := col.count(); got != 0 {
				t.Fatalf("%d envelopes of dropped frames delivered", got)
			}
			want := transport.Stats{Envelopes: 3, Frames: 3, FramesDropped: 3}
			if st := n.Stats(); st != want {
				t.Fatalf("Stats = %+v, want %+v", st, want)
			}
			if n.Stats().FramesDropped != 3 {
				t.Fatalf("FramesDropped = %d, want 3, one per lost frame", n.Stats().FramesDropped)
			}
			// After healing, fresh frames arrive whole and in order.
			tc.heal(n)
			sendAll(t, a, "b", 4, 5, 6)
			got := col.waitN(t, 3, time.Second)
			for i, env := range got {
				if env.ReqID != uint64(4+i) {
					t.Fatalf("post-heal delivery = %+v, want [4 5 6]", got)
				}
			}
			if st := n.Stats(); st.FramesDropped != 3 {
				t.Fatalf("post-heal loss accounting moved: %+v", st)
			}
		})
	}
}

// TestSeededLinkLossIsDeterministic: two networks with the same seed and
// the same lossy link drop the same frames.
func TestSeededLinkLossIsDeterministic(t *testing.T) {
	run := func() (delivered []uint64) {
		n := NewNetwork(WithSeed(99))
		defer n.Close()
		col := newCollector()
		if _, err := n.Endpoint("b", col.handler); err != nil {
			t.Fatal(err)
		}
		a, err := n.Endpoint("a", func(proto.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		n.SetLinkLoss("a", "b", 0.5)
		const total = 40
		for i := 1; i <= total; i++ {
			if err := a.Send(context.Background(), "b", ping(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Drops are counted synchronously in the send path; the survivors
		// are whatever was not dropped.
		want := total - int(n.Stats().FramesDropped)
		got := col.waitN(t, want, time.Second)
		for _, env := range got {
			delivered = append(delivered, env.ReqID)
		}
		return delivered
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 40 {
		t.Fatalf("loss 0.5 delivered %d/40 — expected a proper subset", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("runs diverged: %d vs %d delivered", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, first, second)
		}
	}
}
