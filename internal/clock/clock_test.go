package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	c := New()
	start := c.Now()
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Error("After never fired")
	}
	if c.Since(start) < time.Millisecond {
		t.Error("After fired early")
	}
	var fired atomic.Bool
	timer := c.AfterFunc(time.Millisecond, func() { fired.Store(true) })
	time.Sleep(20 * time.Millisecond)
	if !fired.Load() {
		t.Error("AfterFunc never fired")
	}
	if timer.Stop() {
		t.Error("Stop reported pending after firing")
	}
	t2 := c.AfterFunc(time.Hour, func() { t.Error("canceled AfterFunc fired") })
	if !t2.Stop() {
		t.Error("Stop reported not pending before firing")
	}
}

func TestSimClockNowAndAdvance(t *testing.T) {
	start := time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)
	c := NewSim(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", c.Now(), start)
	}
	c.Advance(time.Hour)
	if got := c.Now(); !got.Equal(start.Add(time.Hour)) {
		t.Fatalf("Now after Advance = %v", got)
	}
	if d := c.Since(start); d != time.Hour {
		t.Fatalf("Since = %v", d)
	}
	// AdvanceTo into the past is a no-op.
	c.AdvanceTo(start)
	if got := c.Now(); !got.Equal(start.Add(time.Hour)) {
		t.Fatalf("Now after past AdvanceTo = %v", got)
	}
}

func TestSimClockAfter(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired too early")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("After did not fire at deadline")
	}
	// Non-positive duration fires immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestSimClockSleepBlocksUntilAdvance(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	go func() {
		<-c.After(5 * time.Second)
		close(done)
	}()
	// Wait until the sleeper has registered.
	for c.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("the sleeper woke before Advance")
	default:
	}
	c.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("the sleeper did not wake after Advance")
	}
}

func TestSimClockAfterFuncOrdering(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	var mu sync.Mutex
	var order []int
	add := func(i int) func() {
		return func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	c.AfterFunc(3*time.Second, add(3))
	c.AfterFunc(1*time.Second, add(1))
	c.AfterFunc(2*time.Second, add(2))
	c.AfterFunc(2*time.Second, add(4)) // same deadline as 2, created later
	c.Advance(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimClockAfterFuncStop(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	timer := c.AfterFunc(time.Second, func() { t.Error("stopped AfterFunc fired") })
	if !timer.Stop() {
		t.Error("Stop = false on pending timer")
	}
	if timer.Stop() {
		t.Error("second Stop = true")
	}
	// Stopping forgets the waiter at once: a timer stopped long before its
	// deadline (a re-armed sweep) must not sit in the list until then.
	if n := len(c.waiters); n != 0 {
		t.Errorf("%d waiters kept after Stop", n)
	}
	c.Advance(2 * time.Second)
	if n := c.PendingWaiters(); n != 0 {
		t.Errorf("PendingWaiters = %d after advance", n)
	}
	// As on the wall clock, a timer that has fired is no longer pending.
	fired := c.AfterFunc(time.Second, func() {})
	c.Advance(time.Second)
	if fired.Stop() {
		t.Error("Stop reported pending after firing")
	}
}

func TestSimClockAfterFuncImmediate(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	done := make(chan struct{})
	c.AfterFunc(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("AfterFunc(0) never ran")
	}
}

// TestSimClockChainedTimers: a timer callback scheduling another timer
// within the advanced window fires during the same Advance.
func TestSimClockChainedTimers(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	var hits atomic.Int32
	c.AfterFunc(time.Second, func() {
		hits.Add(1)
		c.AfterFunc(time.Second, func() { hits.Add(1) })
	})
	c.Advance(3 * time.Second)
	if got := hits.Load(); got != 2 {
		t.Fatalf("chained timer hits = %d, want 2", got)
	}
	if got := c.Now(); !got.Equal(time.Unix(3, 0)) {
		t.Fatalf("Now = %v, want 3s", got)
	}
}

// TestSimClockConcurrentUse: hammer the clock from several goroutines to
// exercise the locking (run with -race).
func TestSimClockConcurrentUse(t *testing.T) {
	c := NewSim(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.AfterFunc(time.Duration(j)*time.Millisecond, func() {})
				_ = c.Now()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			c.Advance(time.Second)
			return
		default:
			c.Advance(10 * time.Millisecond)
		}
	}
}

// TestRealTimerReset: a wall-clock timer stopped and then reset fires its
// call once, no earlier than the new deadline, and a Stop after that
// reports it no longer pending.
func TestRealTimerReset(t *testing.T) {
	c := New()
	fired := make(chan time.Time, 2)
	timer := c.AfterFunc(time.Hour, func() { fired <- time.Now() })
	if !timer.Stop() {
		t.Fatal("Stop reported not pending before firing")
	}
	start := time.Now()
	if timer.Reset(20 * time.Millisecond) {
		t.Error("Reset reported a stopped timer pending")
	}
	select {
	case at := <-fired:
		if d := at.Sub(start); d < 20*time.Millisecond {
			t.Errorf("fired %v after Reset, want ≥ 20ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reset timer never fired")
	}
	time.Sleep(30 * time.Millisecond)
	if n := len(fired); n != 0 {
		t.Errorf("fired %d more times", n)
	}
	if timer.Stop() {
		t.Error("Stop reported pending after firing")
	}
}

// TestSimTimerReset: on the simulated clock a timer reset after Stop fires
// once, at the new deadline and not before; reset after firing it fires
// again; reset while pending it moves; and a Stop after it fired reports
// false. Reset(d ≤ 0) runs the call at once in its own goroutine and
// leaves nothing pending, as AfterFunc(0) does.
func TestSimTimerReset(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewSim(start)
	var at []time.Time
	timer := c.AfterFunc(time.Second, func() { at = append(at, c.Now()) })
	if !timer.Stop() {
		t.Fatal("Stop = false on pending timer")
	}
	if timer.Reset(3 * time.Second) {
		t.Error("Reset reported a stopped timer pending")
	}
	c.Advance(2 * time.Second)
	if len(at) != 0 {
		t.Fatalf("fired at %v, before the reset deadline", at)
	}
	c.Advance(5 * time.Second)
	if want := start.Add(3 * time.Second); len(at) != 1 || !at[0].Equal(want) {
		t.Fatalf("fired at %v, want once at %v", at, want)
	}
	if timer.Stop() {
		t.Error("Stop reported pending after firing")
	}

	// Reset after firing: once more, d from now.
	if timer.Reset(time.Second) {
		t.Error("Reset reported a fired timer pending")
	}
	// Reset while pending: the deadline moves, the call still runs once.
	if !timer.Reset(2 * time.Second) {
		t.Error("Reset reported a pending timer not pending")
	}
	if n := c.PendingWaiters(); n != 1 {
		t.Errorf("PendingWaiters = %d after resetting a pending timer, want 1", n)
	}
	c.Advance(5 * time.Second)
	if want := start.Add(9 * time.Second); len(at) != 2 || !at[1].Equal(want) {
		t.Fatalf("fired at %v, want a second time at %v", at, want)
	}

	done := make(chan struct{}, 1)
	now := c.AfterFunc(time.Hour, func() { done <- struct{}{} })
	if !now.Reset(0) {
		t.Error("Reset(0) reported a pending timer not pending")
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Reset(0) never ran the call")
	}
	if n := c.PendingWaiters(); n != 0 {
		t.Errorf("PendingWaiters = %d after Reset(0), want 0", n)
	}
	if now.Stop() {
		t.Error("Stop reported pending after Reset(0) ran the call")
	}
	c.Advance(2 * time.Hour)
	if n := len(done); n != 0 {
		t.Error("the call ran again at the old deadline")
	}
}
