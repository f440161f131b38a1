// Package clock abstracts time so that scheduling and execution logic can
// run against either the real wall clock or a deterministic simulated
// clock. All time-dependent components of the system (schedule manager,
// execution manager, auction deadlines, network latency models) take a
// Clock rather than calling package time directly.
package clock

import (
	"sync"
	"time"
)

// Clock is the subset of package time the system depends on.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for at least d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the time after duration d.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run in its own goroutine after duration
	// d and returns a Timer that can cancel the call.
	AfterFunc(d time.Duration, f func()) Timer
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Timer is a cancelable pending call created by AfterFunc.
type Timer interface {
	// Stop cancels the pending call. It reports whether the call was
	// still pending.
	Stop() bool
}

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// New returns the wall clock.
func New() Clock { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return realTimer{time.AfterFunc(d, f)} }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool { return t.t.Stop() }

// Sim is a deterministic simulated clock. Time advances only through
// Advance/AdvanceTo; Sleep and After block until the clock passes their
// deadline. Sim is safe for concurrent use.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*simWaiter // pending timers/sleepers, unordered
	seq     uint64
}

type simWaiter struct {
	deadline time.Time
	seq      uint64 // insertion order for deterministic firing among equals
	ch       chan time.Time
	fn       func()
	stopped  bool
}

var _ Clock = (*Sim)(nil)

// NewSim returns a simulated clock starting at the given time.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock. It returns immediately for non-positive d;
// otherwise it blocks until the simulated time passes now+d.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-s.After(d)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan time.Time, 1)
	deadline := s.now.Add(d)
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.seq++
	s.waiters = append(s.waiters, &simWaiter{deadline: deadline, seq: s.seq, ch: ch})
	return ch
}

// AfterFunc implements Clock. f runs in its own goroutine when the clock
// reaches now+d.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d <= 0 {
		go f()
		return simTimer{}
	}
	s.seq++
	w := &simWaiter{deadline: s.now.Add(d), seq: s.seq, fn: f}
	s.waiters = append(s.waiters, w)
	return simTimer{s: s, w: w}
}

type simTimer struct {
	s *Sim
	w *simWaiter
}

func (t simTimer) Stop() bool {
	if t.s == nil {
		return false
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.w.stopped {
		return false
	}
	// Forget the waiter now: nothing else ever removes a stopped one.
	t.w.stopped = true
	t.s.removeLocked(t.w)
	return true
}

// Advance moves the simulated clock forward by d, firing every timer and
// sleeper whose deadline falls within the interval, in deadline order
// (ties broken by creation order).
func (s *Sim) Advance(d time.Duration) {
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves the simulated clock to t (no-op if t is in the past),
// firing due waiters in deadline order.
func (s *Sim) AdvanceTo(t time.Time) {
	for {
		s.mu.Lock()
		if !t.After(s.now) && s.nextDueLocked(t) == nil {
			s.mu.Unlock()
			return
		}
		w := s.nextDueLocked(t)
		if w == nil {
			s.now = t
			s.mu.Unlock()
			return
		}
		if w.deadline.After(s.now) {
			s.now = w.deadline
		}
		s.removeLocked(w)
		stopped := w.stopped
		// Fired: a later Stop reports false, as Timer documents.
		w.stopped = true
		s.mu.Unlock()
		if stopped {
			continue
		}
		if w.fn != nil {
			// Run synchronously with respect to the advance so that
			// a chain of timers fires deterministically, but outside
			// the lock so the callback can use the clock.
			w.fn()
		} else {
			w.ch <- w.deadline
		}
	}
}

// nextDueLocked returns the earliest unstopped waiter with deadline ≤ t,
// or nil.
func (s *Sim) nextDueLocked(t time.Time) *simWaiter {
	var best *simWaiter
	for _, w := range s.waiters {
		if w.stopped || w.deadline.After(t) {
			continue
		}
		if best == nil || w.deadline.Before(best.deadline) ||
			(w.deadline.Equal(best.deadline) && w.seq < best.seq) {
			best = w
		}
	}
	return best
}

func (s *Sim) removeLocked(target *simWaiter) {
	for i, w := range s.waiters {
		if w == target {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// PendingWaiters returns the number of outstanding (unstopped) timers and
// sleepers. Tests use it to synchronize with goroutines entering waits.
func (s *Sim) PendingWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.waiters {
		if !w.stopped {
			n++
		}
	}
	return n
}
