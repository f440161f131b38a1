// Package schedule implements the Schedule Manager, the keystone component
// of the execution subsystem (§4.2): it manages a host's availability by
// tracking its location, schedule, and scheduling preferences, and
// maintains the database of commitments — scheduled service invocations
// with their location and travel-time details — that drives both
// allocation (can this host bid?) and execution (when must it travel?).
//
// # Arbitration between concurrent allocation sessions
//
// A host carries several allocation sessions at once (one per open
// workflow), and their auctions race for the same calendar. The manager
// arbitrates deterministically:
//
//   - First-hold-wins. Every hold is stamped with a monotonically
//     increasing sequence number when it is taken; a request that
//     overlaps an earlier hold or commitment fails with ErrSlotBusy and
//     never evicts the earlier reservation. The losing session receives
//     a clean decline (its participant lists the task among the reply's
//     declines) instead of a stale commitment.
//   - Conflicts are attributed deterministically: when a request
//     overlaps several busy intervals, the reported blocker is the one
//     with the lowest hold sequence (the first winner), so identical
//     interleavings produce identical errors.
//
// # Concurrency
//
// One participant's calendar is a handful of commitments, so the whole
// of it sits behind one sync.RWMutex: two maps keyed by (workflow, task),
// one of holds and one of commitments, and a conflict check that scans
// both. Every operation is atomic against every other, and a record is
// either in a map or gone. DESIGN.md §14 records the sharded calendar
// that was tried in its place, measured, and removed.
package schedule

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/space"
)

// Commitment is a promise to perform one service invocation: the task, its
// execution window, the location, and the travel block preceding it. Once
// made, a commitment is the host's responsibility; the host is free to
// roam but must meet it (§3.2).
type Commitment struct {
	// Workflow and Task identify the committed work.
	Workflow string
	Task     model.TaskID
	// Start and End bound the service execution window.
	Start, End time.Time
	// Location is where the service must be performed.
	Location    space.Point
	HasLocation bool
	// TravelStart is when the host must begin traveling to reach
	// Location by Start (equal to Start when no travel is needed).
	TravelStart time.Time
	// Meta retains the full task metadata from the award.
	Meta proto.TaskMeta
}

// key identifies a commitment or hold.
type key struct {
	workflow string
	task     model.TaskID
}

// record is one busy interval on the calendar — a firm-bid hold or a
// commitment. Records are guarded by Manager.mu.
type record struct {
	c Commitment
	// seq is the arbitration sequence (lower = earlier = wins conflicts).
	seq uint64
	// expiry is the hold deadline (holds only).
	expiry time.Time
	// lease is the commitment's lease expiry; zero means the commitment
	// never expires.
	lease time.Time
}

// Preferences expresses a participant's willingness (§3.2, condition 5):
// hosts only bid on work they are willing to do.
type Preferences struct {
	// Willing, when non-nil, is consulted per task; returning false
	// declines the work.
	Willing func(meta proto.TaskMeta) bool
	// MaxCommitments, when positive, caps concurrent commitments plus
	// holds (a simple workload preference).
	MaxCommitments int
}

// Manager tracks one host's calendar and position. It is safe for
// concurrent use by any number of allocation sessions.
type Manager struct {
	clk      clock.Clock
	mobility space.Mobility
	prefs    Preferences

	mu      sync.RWMutex
	holds   map[key]*record
	commits map[key]*record
	// seq is the arbitration counter: the last sequence handed out.
	seq uint64
}

// NewManager returns a schedule manager for a host with the given mobility
// model and preferences. A nil mobility means a static host at the origin.
func NewManager(clk clock.Clock, mobility space.Mobility, prefs Preferences) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	if mobility == nil {
		mobility = space.Static{}
	}
	return &Manager{
		clk:      clk,
		mobility: mobility,
		prefs:    prefs,
		holds:    make(map[key]*record),
		commits:  make(map[key]*record),
	}
}

// Mobility returns the host's mobility model.
func (m *Manager) Mobility() space.Mobility { return m.mobility }

// Position returns the host's current position.
func (m *Manager) Position() space.Point { return m.mobility.Position(m.clk.Now()) }

// CanCommit evaluates whether the host could commit to the task described
// by meta (§3.2 conditions 2–5: time available, travel feasible, inputs/
// outputs deliverable, willing). On success it returns the planned
// commitment (with its travel block). It does not reserve anything.
func (m *Manager) CanCommit(meta proto.TaskMeta) (Commitment, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan(meta)
}

// ErrSlotBusy is wrapped in errors returned when a requested slot
// overlaps a reservation or commitment made by an earlier request.
// Arbitration is first-hold-wins: the earlier reservation stands and the
// later session must bid elsewhere or retry with a different window.
var ErrSlotBusy = errors.New("schedule: slot busy")

// plan evaluates §3.2 for one meta against the calendar as it stands.
// Callers hold m.mu (read or write).
func (m *Manager) plan(meta proto.TaskMeta) (Commitment, error) {
	if m.prefs.Willing != nil && !m.prefs.Willing(meta) {
		return Commitment{}, fmt.Errorf("unwilling to perform %q", meta.Task)
	}
	if max := m.prefs.MaxCommitments; max > 0 && len(m.holds)+len(m.commits) >= max {
		return Commitment{}, fmt.Errorf("at commitment capacity (%d)", max)
	}
	if !meta.End.After(meta.Start) {
		return Commitment{}, fmt.Errorf("task %q has an empty execution window", meta.Task)
	}

	c := Commitment{
		Workflow:    "", // set by caller wrappers
		Task:        meta.Task,
		Start:       meta.Start,
		End:         meta.End,
		Location:    meta.Location,
		HasLocation: meta.HasLocation,
		TravelStart: meta.Start,
		Meta:        meta,
	}

	if meta.HasLocation {
		from, depart := m.origin(meta.Start)
		travel := space.TravelTime(from, meta.Location, m.mobility.Speed())
		if travel == time.Duration(1<<63-1) { // immobile and not already there
			if !space.Near(from, meta.Location, 1e-9) {
				return Commitment{}, fmt.Errorf("cannot travel to %v for %q", meta.Location, meta.Task)
			}
			travel = 0
		}
		c.TravelStart = meta.Start.Add(-travel)
		if c.TravelStart.Before(depart) {
			return Commitment{}, fmt.Errorf(
				"cannot reach %v by %v for %q (need to leave at %v, free at %v)",
				meta.Location, meta.Start, meta.Task, c.TravelStart, depart)
		}
		if c.TravelStart.Before(m.clk.Now()) {
			return Commitment{}, fmt.Errorf("too late to travel for %q", meta.Task)
		}
	} else if meta.Start.Before(m.clk.Now()) {
		return Commitment{}, fmt.Errorf("execution window for %q already started", meta.Task)
	}

	// The busy interval is [TravelStart, End); it must not overlap any
	// existing commitment or hold. When it overlaps several, report the
	// earliest winner (lowest sequence) so arbitration is deterministic.
	var blocker *record
	for _, recs := range [2]map[key]*record{m.holds, m.commits} {
		for _, r := range recs {
			if overlaps(c.TravelStart, c.End, r.c.TravelStart, r.c.End) &&
				(blocker == nil || r.seq < blocker.seq) {
				blocker = r
			}
		}
	}
	if blocker != nil {
		return Commitment{}, fmt.Errorf(
			"%w: task %q conflicts with %q of workflow %q (%v–%v)",
			ErrSlotBusy, meta.Task, blocker.c.Task, blocker.c.Workflow,
			blocker.c.TravelStart, blocker.c.End)
	}
	return c, nil
}

// origin determines where the host will be (and from when it is free to
// leave) just before a window starting at t: the location of its latest
// commitment ending at or before t, or its current position. Callers hold
// m.mu.
func (m *Manager) origin(t time.Time) (space.Point, time.Time) {
	from := m.mobility.Position(m.clk.Now())
	free := m.clk.Now()
	for _, recs := range [2]map[key]*record{m.holds, m.commits} {
		for _, r := range recs {
			if c := &r.c; !c.End.After(t) && c.End.After(free) && c.HasLocation {
				from = c.Location
				free = c.End
			}
		}
	}
	return from, free
}

func overlaps(aStart, aEnd, bStart, bEnd time.Time) bool {
	return aStart.Before(bEnd) && bStart.Before(aEnd)
}

// ErrAlreadyHeld is returned by Hold when the slot for the same
// (workflow, task) is already reserved; HoldBatch refreshes such a
// reservation's deadline in place instead.
var ErrAlreadyHeld = errors.New("schedule: already holding this task")

// Hold reserves the schedule slot for a firm bid until deadline: the
// bidder must be able to honor an award that arrives before then. The
// reservation is released by Release, converted by CommitHeld, or expired
// by Expire. Holds are sequence-stamped in arrival order; an
// overlapping later Hold fails with ErrSlotBusy (first-hold-wins).
func (m *Manager) Hold(workflow string, meta proto.TaskMeta, deadline time.Time) (Commitment, error) {
	k := key{workflow, meta.Task}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hold(k, meta, deadline)
}

// hold is the single reservation body shared by Hold and HoldBatch.
// Callers hold m.mu.
func (m *Manager) hold(k key, meta proto.TaskMeta, deadline time.Time) (Commitment, error) {
	if _, dup := m.holds[k]; dup {
		return Commitment{}, fmt.Errorf("%w: %q in workflow %q", ErrAlreadyHeld, meta.Task, k.workflow)
	}
	if _, dup := m.commits[k]; dup {
		return Commitment{}, fmt.Errorf("already committed to %q in workflow %q", meta.Task, k.workflow)
	}
	c, err := m.plan(meta)
	if err != nil {
		return Commitment{}, err
	}
	c.Workflow = k.workflow
	m.seq++
	m.holds[k] = &record{c: c, seq: m.seq, expiry: deadline}
	return c, nil
}

// HoldResult is one task's outcome of a HoldBatch: the reserved (or
// refreshed) commitment, or the error that declined it.
type HoldResult struct {
	Commitment Commitment
	Err        error
}

// HoldBatch reserves schedule slots for a whole batched call for bids
// under one lock acquisition: each meta is evaluated in order with
// exactly the per-task Hold semantics — earlier successes in the batch
// count as busy intervals for later metas, first-hold-wins arbitration
// against other sessions is unchanged, and a meta whose (workflow, task)
// is already held refreshes that hold's deadline instead of failing
// (the replanning re-solicitation path), keeping its original arbitration
// sequence so a refresh never jumps the queue. Results are per task: a
// failed meta leaves no reservation behind while the rest of the batch
// proceeds, so a partially-infeasible batch yields partial declines,
// never leaked holds.
//
// Taking the lock once for the whole batch is what makes a participant's
// answer to a CallForBidsBatch atomic: no competing session can
// interleave a reservation between two tasks of the same batch.
func (m *Manager) HoldBatch(workflow string, metas []proto.TaskMeta, deadline time.Time) []HoldResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]HoldResult, len(metas))
	for i, meta := range metas {
		k := key{workflow, meta.Task}
		if r, dup := m.holds[k]; dup {
			r.expiry = deadline
			out[i] = HoldResult{Commitment: r.c}
			continue
		}
		c, err := m.hold(k, meta, deadline)
		out[i] = HoldResult{Commitment: c, Err: err}
	}
	return out
}

// ErrNoHold is returned by CommitHeld when no live hold backs the
// commitment: the firm bid's reservation expired (or was released)
// before the award arrived.
var ErrNoHold = errors.New("schedule: no live hold")

// CommitHeld converts a live hold into a commitment leased until lease
// (the zero time means it never expires) and fails with ErrNoHold when
// the hold is gone — the award arrived after the firm bid's reservation
// expired, so under lease semantics it must be refused (the slot may
// meanwhile back a rival's fresh hold, and even a still-free slot belongs
// to whoever holds it next, not to a stale award).
func (m *Manager) CommitHeld(workflow string, task model.TaskID, lease time.Time) (Commitment, error) {
	k := key{workflow, task}
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.holds[k]
	if !ok {
		return Commitment{}, fmt.Errorf("%w for %q in workflow %q (bid window expired before the award)", ErrNoHold, task, workflow)
	}
	// The record keeps its busy interval and its arbitration sequence.
	delete(m.holds, k)
	r.expiry = time.Time{}
	r.lease = lease
	m.commits[k] = r
	return r.c, nil
}

// RefreshCommitLease extends a commitment's lease (the initiator's
// engine refreshes its executors' leases for the lifetime of the
// execution). It fails when the commitment does not exist — the lease
// already expired and was swept, or the task was never committed here —
// which tells the refresher that this executor no longer backs the task.
func (m *Manager) RefreshCommitLease(workflow string, task model.TaskID, lease time.Time) error {
	k := key{workflow, task}
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.commits[k]
	if !ok {
		return fmt.Errorf("no commitment for %q in workflow %q", task, workflow)
	}
	r.lease = lease
	return nil
}

// Expire is the calendar's one clock-driven exit: it drops every hold whose
// bid deadline and every commitment whose lease has passed (lease-less
// commitments never expire) and returns the lapsed commitments, sorted by
// start then task, so the host can drop the runs behind them, plus the
// earliest deadline left — when to sweep next; zero when nothing can lapse.
// This is what returns a dead initiator's slots to the pool.
func (m *Manager) Expire(now time.Time) (lapsed []Commitment, next time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// due reports whether deadline has passed; one that has not competes
	// for next.
	due := func(deadline time.Time) bool {
		if now.After(deadline) {
			return true
		}
		if next.IsZero() || deadline.Before(next) {
			next = deadline
		}
		return false
	}
	for k, r := range m.holds {
		if due(r.expiry) {
			delete(m.holds, k)
		}
	}
	for k, r := range m.commits {
		if !r.lease.IsZero() && due(r.lease) {
			lapsed = append(lapsed, r.c)
			delete(m.commits, k)
		}
	}
	sortByStart(lapsed)
	return lapsed, next
}

// sortByStart orders commitments by start time, then task.
func sortByStart(cs []Commitment) {
	sort.Slice(cs, func(i, j int) bool {
		if !cs[i].Start.Equal(cs[j].Start) {
			return cs[i].Start.Before(cs[j].Start)
		}
		return cs[i].Task < cs[j].Task
	})
}

// Release drops a hold without committing (the auction was lost).
func (m *Manager) Release(workflow string, task model.TaskID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.holds, key{workflow, task})
}

// DropWorkflow removes everything the calendar holds for one workflow —
// holds and commitments alike — when the workflow has ended.
func (m *Manager) DropWorkflow(workflow string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dropWorkflow(m.holds, workflow)
	dropWorkflow(m.commits, workflow)
}

// ReleaseWorkflow drops every hold of one workflow and returns how many
// were released; commitments are untouched. No product caller; kept for
// the frozen benchmark, goes with the [benchmark] re-baseline.
func (m *Manager) ReleaseWorkflow(workflow string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return dropWorkflow(m.holds, workflow)
}

// dropWorkflow deletes a workflow's records from recs and counts them.
func dropWorkflow(recs map[key]*record, workflow string) (n int) {
	for k := range recs {
		if k.workflow == workflow {
			delete(recs, k)
			n++
		}
	}
	return n
}

// Remove cancels a commitment (compensation during replanning). It
// reports whether the commitment existed.
func (m *Manager) Remove(workflow string, task model.TaskID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key{workflow, task}
	_, ok := m.commits[k]
	delete(m.commits, k)
	return ok
}

// Get returns the commitment for a task, if any.
func (m *Manager) Get(workflow string, task model.TaskID) (Commitment, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if r, ok := m.commits[key{workflow, task}]; ok {
		return r.c, true
	}
	return Commitment{}, false
}

// Commitments returns all commitments ordered by start time (then task).
func (m *Manager) Commitments() []Commitment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Commitment
	for _, r := range m.commits {
		out = append(out, r.c)
	}
	sortByStart(out)
	return out
}

// Holds returns the number of outstanding firm-bid reservations.
func (m *Manager) Holds() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.holds)
}

// HeldTasks returns the (workflow, task) pairs currently reserved,
// ordered by arbitration sequence (first winner first). Diagnostic: the
// stress harness uses it to attribute leaked holds.
func (m *Manager) HeldTasks() []Commitment {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hs := make([]*record, 0, len(m.holds))
	for _, r := range m.holds {
		hs = append(hs, r)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].seq < hs[j].seq })
	out := make([]Commitment, len(hs))
	for i, r := range hs {
		out[i] = r.c
	}
	return out
}

// Clear removes every commitment and hold (used between evaluation runs).
func (m *Manager) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.holds)
	clear(m.commits)
}
