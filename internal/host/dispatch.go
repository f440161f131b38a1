package host

import (
	"slices"
	"sync"

	"openwf/internal/proto"
)

// sessionQueue is the pending inbound traffic of one workflow session on
// this host. Envelopes of one workflow are processed strictly in arrival
// order (the per-link FIFO guarantee extends through the dispatcher);
// envelopes of different workflows may be processed concurrently.
type sessionQueue struct {
	id    string
	queue []proto.Envelope
	// spare is the cleared backing array of the batch drained last: the
	// queue's next array once the current one goes out as a batch.
	spare []proto.Envelope
	// scheduled is true while the session is running on a worker or
	// waiting in the runnable list; it is never in both places.
	scheduled bool
}

// dispatcher fans a host's inbound envelopes out to per-workflow session
// workers, bounded by a worker pool. It replaces the single-threaded
// Handle loop: one slow session (a long service invocation, a blocked
// auction) no longer stalls every other workflow on the host, which is
// what lets N concurrent Initiates multiplex over one participant.
//
// Invariants:
//   - per-workflow FIFO: a session's envelopes are handled one at a
//     time, in arrival order;
//   - bounded concurrency: at most `workers` envelopes are being
//     handled at once across all sessions;
//   - no idle goroutines: a drained session releases its worker, which
//     adopts the next runnable session or exits.
//
// In steady state it allocates nothing: retired sessions are reused, a
// session's two queue arrays take turns, and workers start from d.work.
type dispatcher struct {
	process func(proto.Envelope)
	workers int
	work    func() // d.run, bound once: starting a worker allocates no closure

	mu       sync.Mutex
	sessions map[string]*sessionQueue
	runnable []*sessionQueue // FIFO of scheduled sessions awaiting a worker
	free     []*sessionQueue // retired sessions, for reuse
	active   int             // workers currently live
	closed   bool
}

func newDispatcher(process func(proto.Envelope), workers int) *dispatcher {
	d := &dispatcher{
		process:  process,
		workers:  workers,
		sessions: make(map[string]*sessionQueue),
	}
	d.work = d.run
	return d
}

// enqueue routes one envelope to its workflow's session, scheduling the
// session on the worker pool if it is not already scheduled. It never
// blocks.
func (d *dispatcher) enqueue(env proto.Envelope) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	s, ok := d.sessions[env.Workflow]
	if !ok {
		if n := len(d.free); n > 0 {
			s, d.free = d.free[n-1], d.free[:n-1]
		} else {
			s = &sessionQueue{}
		}
		s.id = env.Workflow
		d.sessions[env.Workflow] = s
	}
	s.queue = append(s.queue, env)
	if !s.scheduled {
		s.scheduled = true
		d.runnable = append(d.runnable, s)
		if d.active < d.workers {
			d.active++
			go d.work()
		}
	}
}

// run is one worker: it drains runnable sessions, oldest first, until none
// remain, and exits.
func (d *dispatcher) run() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !d.closed && len(d.runnable) > 0 {
		s := d.runnable[0]
		d.runnable = slices.Delete(d.runnable, 0, 1)
		for len(s.queue) > 0 && !d.closed {
			batch := s.queue
			s.queue, s.spare = s.spare, nil
			d.mu.Unlock()
			for _, env := range batch {
				d.process(env)
			}
			clear(batch)
			d.mu.Lock()
			s.spare = batch[:0]
		}
		// Session drained (or the dispatcher is closing): retire it.
		s.scheduled = false
		if len(s.queue) == 0 {
			delete(d.sessions, s.id)
			d.free = append(d.free, s)
		}
	}
	d.active--
}

// close stops the dispatcher: queued envelopes are dropped and new ones
// refused. In-flight handlers finish their current envelope; close does
// not wait for them (host shutdown cancels their contexts).
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.runnable = nil
	for _, s := range d.sessions {
		s.queue = nil
	}
	d.mu.Unlock()
}

// ActiveSessions returns how many workflow sessions currently have
// queued or in-flight inbound traffic.
func (d *dispatcher) ActiveSessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}
