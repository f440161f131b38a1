package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/space"
	"openwf/internal/testutil"
)

var t0 = time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)

func meta(task string, start, end time.Time) proto.TaskMeta {
	return proto.TaskMeta{
		Task:  model.TaskID(task),
		Mode:  model.Conjunctive,
		Start: start,
		End:   end,
	}
}

func locMeta(task string, start, end time.Time, at space.Point) proto.TaskMeta {
	m := meta(task, start, end)
	m.Location = at
	m.HasLocation = true
	return m
}

// commit books md the way an award does: a firm-bid hold, then CommitHeld.
func commit(m *Manager, wf string, md proto.TaskMeta, lease time.Time) (Commitment, error) {
	if _, err := m.Hold(wf, md, t0.Add(time.Minute)); err != nil {
		return Commitment{}, err
	}
	return m.CommitHeld(wf, md.Task, lease)
}

func newManager(prefs Preferences, mobility space.Mobility) (*Manager, *clock.Sim) {
	sim := clock.NewSim(t0)
	return NewManager(sim, mobility, prefs), sim
}

func TestCanCommitBasics(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	c, err := m.CanCommit(meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour)))
	if err != nil {
		t.Fatalf("CanCommit: %v", err)
	}
	if !c.TravelStart.Equal(c.Start) {
		t.Errorf("no-location commitment has travel: %v vs %v", c.TravelStart, c.Start)
	}
}

func TestCanCommitRejectsEmptyWindow(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := m.CanCommit(meta("t", t0.Add(time.Hour), t0.Add(time.Hour))); err == nil {
		t.Error("empty window accepted")
	}
}

func TestCanCommitRejectsPastWindow(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := m.CanCommit(meta("t", t0.Add(-time.Hour), t0.Add(time.Hour))); err == nil {
		t.Error("already-started window accepted")
	}
}

func TestCanCommitWillingness(t *testing.T) {
	m, _ := newManager(Preferences{
		Willing: func(meta proto.TaskMeta) bool { return meta.Task != "dirty" },
	}, nil)
	if _, err := m.CanCommit(meta("dirty", t0.Add(time.Hour), t0.Add(2*time.Hour))); err == nil {
		t.Error("unwilling task accepted")
	}
	if _, err := m.CanCommit(meta("clean", t0.Add(time.Hour), t0.Add(2*time.Hour))); err != nil {
		t.Errorf("willing task rejected: %v", err)
	}
}

func TestCanCommitCapacity(t *testing.T) {
	m, _ := newManager(Preferences{MaxCommitments: 1}, nil)
	if _, err := commit(m, "wf", meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CanCommit(meta("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour))); err == nil {
		t.Error("over-capacity commitment accepted")
	}
}

func TestCommitConflictDetection(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := commit(m, "wf", meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Overlapping window conflicts.
	if _, err := m.CanCommit(meta("b", t0.Add(90*time.Minute), t0.Add(3*time.Hour))); err == nil {
		t.Error("overlapping commitment accepted")
	}
	// Adjacent window is fine.
	if _, err := m.CanCommit(meta("c", t0.Add(2*time.Hour), t0.Add(3*time.Hour))); err != nil {
		t.Errorf("adjacent commitment rejected: %v", err)
	}
}

func TestTravelTimeBlocking(t *testing.T) {
	// Host at origin, speed 1 m/s; task 60 m away starting in 2 min:
	// travel takes 1 min, so TravelStart is 1 min before Start.
	mobility := space.NewMover(space.Point{}, 1)
	m, _ := newManager(Preferences{}, mobility)
	c, err := m.CanCommit(locMeta("far", t0.Add(2*time.Minute), t0.Add(3*time.Minute), space.Point{X: 60}))
	if err != nil {
		t.Fatalf("CanCommit: %v", err)
	}
	wantTravelStart := t0.Add(time.Minute)
	if !c.TravelStart.Equal(wantTravelStart) {
		t.Errorf("TravelStart = %v, want %v", c.TravelStart, wantTravelStart)
	}
}

func TestTravelInfeasibleTooFar(t *testing.T) {
	mobility := space.NewMover(space.Point{}, 1)
	m, _ := newManager(Preferences{}, mobility)
	// 3600 m away, starting in 2 minutes: cannot arrive.
	_, err := m.CanCommit(locMeta("far", t0.Add(2*time.Minute), t0.Add(time.Hour), space.Point{X: 3600}))
	if err == nil {
		t.Error("unreachable commitment accepted")
	}
}

func TestTravelImmobileHost(t *testing.T) {
	m, _ := newManager(Preferences{}, space.Static{P: space.Point{X: 5}})
	// Task at the host's own position: fine.
	if _, err := m.CanCommit(locMeta("here", t0.Add(time.Hour), t0.Add(2*time.Hour), space.Point{X: 5})); err != nil {
		t.Errorf("in-place task rejected: %v", err)
	}
	// Task elsewhere: impossible.
	if _, err := m.CanCommit(locMeta("there", t0.Add(time.Hour), t0.Add(2*time.Hour), space.Point{X: 6})); err == nil {
		t.Error("travel accepted for immobile host")
	}
}

func TestTravelChainsFromPreviousCommitment(t *testing.T) {
	// After a task at x=60, the host must travel from there (not from
	// the origin) to the next location.
	mobility := space.NewMover(space.Point{}, 1)
	m, _ := newManager(Preferences{}, mobility)
	if _, err := commit(m, "wf", locMeta("first", t0.Add(2*time.Minute), t0.Add(3*time.Minute), space.Point{X: 60}), time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Second task back at the origin 30 s after the first ends: travel
	// from x=60 takes 60 s — infeasible.
	_, err := m.CanCommit(locMeta("second", t0.Add(3*time.Minute+30*time.Second), t0.Add(5*time.Minute), space.Point{}))
	if err == nil {
		t.Error("infeasible chained travel accepted")
	}
	// 90 s after: feasible.
	if _, err := m.CanCommit(locMeta("third", t0.Add(4*time.Minute+30*time.Second), t0.Add(6*time.Minute), space.Point{})); err != nil {
		t.Errorf("feasible chained travel rejected: %v", err)
	}
}

func TestHoldLifecycle(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	md := meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour))
	deadline := t0.Add(time.Minute)

	if _, err := m.Hold("wf", md, deadline); err != nil {
		t.Fatal(err)
	}
	if m.Holds() != 1 {
		t.Errorf("Holds = %d", m.Holds())
	}
	// Duplicate hold: ErrAlreadyHeld.
	if _, err := m.Hold("wf", md, deadline); !errors.Is(err, ErrAlreadyHeld) {
		t.Errorf("duplicate Hold = %v, want ErrAlreadyHeld", err)
	}
	// The hold blocks conflicting work.
	if _, err := m.CanCommit(meta("other", t0.Add(90*time.Minute), t0.Add(3*time.Hour))); err == nil {
		t.Error("hold did not reserve the slot")
	}
	// Re-soliciting the held task extends the deadline.
	if res := m.HoldBatch("wf", []proto.TaskMeta{md}, t0.Add(2*time.Minute)); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	// Expiry after the refreshed deadline, which Expire reports as the
	// next thing to lapse until then.
	if _, next := m.Expire(t0.Add(90 * time.Second)); m.Holds() != 1 || !next.Equal(t0.Add(2*time.Minute)) {
		t.Errorf("Expire before deadline: holds %d, next %v", m.Holds(), next)
	}
	if lapsed, next := m.Expire(t0.Add(3 * time.Minute)); m.Holds() != 0 || len(lapsed) != 0 || !next.IsZero() {
		t.Errorf("Expire after deadline: holds %d, lapsed %v, next %v", m.Holds(), lapsed, next)
	}
}

func TestCommitConvertsHold(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	md := meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour))
	if _, err := m.Hold("wf", md, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	c, err := m.CommitHeld("wf", "t", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Task != "t" || m.Holds() != 0 {
		t.Errorf("CommitHeld did not convert hold: %+v holds=%d", c, m.Holds())
	}
	if _, ok := m.Get("wf", "t"); !ok {
		t.Error("commitment not stored")
	}
}

func TestCommitWithoutHoldPlansFresh(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	md := meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour))
	if _, err := commit(m, "wf", md, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// A second, conflicting fresh commit fails.
	if _, err := commit(m, "wf2", meta("u", t0.Add(time.Hour), t0.Add(2*time.Hour)), time.Time{}); err == nil {
		t.Error("conflicting fresh commit accepted")
	}
}

func TestReleaseAndRemove(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	md := meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour))
	if _, err := m.Hold("wf", md, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	m.Release("wf", "t")
	if m.Holds() != 0 {
		t.Error("Release did not drop hold")
	}
	if _, err := commit(m, "wf", md, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if !m.Remove("wf", "t") {
		t.Error("Remove returned false for existing commitment")
	}
	if m.Remove("wf", "t") {
		t.Error("Remove returned true for missing commitment")
	}
}

func TestCommitmentsSorted(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := commit(m, "wf", meta("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := commit(m, "wf", meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	cs := m.Commitments()
	if len(cs) != 2 || cs[0].Task != "a" || cs[1].Task != "b" {
		t.Errorf("Commitments = %+v", cs)
	}
}

func TestClear(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := commit(m, "wf", meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Hold("wf", meta("b", t0.Add(5*time.Hour), t0.Add(6*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	m.Clear()
	if len(m.Commitments()) != 0 || m.Holds() != 0 {
		t.Error("Clear left state behind")
	}
}

func TestPosition(t *testing.T) {
	m, sim := newManager(Preferences{}, space.NewMover(space.Point{X: 1}, 2))
	if p := m.Position(); p != (space.Point{X: 1}) {
		t.Errorf("Position = %v", p)
	}
	m.Mobility().Travel(sim.Now(), space.Point{X: 5})
	sim.Advance(2 * time.Second)
	if p := m.Position(); p != (space.Point{X: 5}) {
		t.Errorf("Position after travel = %v", p)
	}
}

// TestFirstHoldWinsArbitration: a later session's overlapping Hold loses
// with ErrSlotBusy and the earlier reservation stands untouched.
func TestFirstHoldWinsArbitration(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	first := meta("t-first", t0.Add(time.Hour), t0.Add(2*time.Hour))
	if _, err := m.Hold("wf-a", first, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Hold("wf-b", meta("t-second", t0.Add(90*time.Minute), t0.Add(3*time.Hour)), t0.Add(time.Minute))
	if !errors.Is(err, ErrSlotBusy) {
		t.Fatalf("overlapping Hold err = %v, want ErrSlotBusy", err)
	}
	if m.Holds() != 1 {
		t.Fatalf("Holds = %d, want the first session's reservation only", m.Holds())
	}
	held := m.HeldTasks()
	if len(held) != 1 || held[0].Workflow != "wf-a" || held[0].Task != "t-first" {
		t.Fatalf("HeldTasks = %+v, want wf-a/t-first", held)
	}
}

// TestReleaseWorkflowSweepsSessionHolds: session teardown drops only that
// workflow's reservations.
func TestReleaseWorkflowSweepsSessionHolds(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := m.Hold("wf-a", meta("a1", t0.Add(time.Hour), t0.Add(2*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Hold("wf-a", meta("a2", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Hold("wf-b", meta("b1", t0.Add(5*time.Hour), t0.Add(6*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if n := m.ReleaseWorkflow("wf-a"); n != 2 {
		t.Fatalf("ReleaseWorkflow released %d, want 2", n)
	}
	if m.Holds() != 1 {
		t.Fatalf("Holds = %d after sweep, want wf-b's single hold", m.Holds())
	}
}

// assertNoOverlap fails if any two busy intervals (commitments plus
// holds) overlap — the calendar invariant every interleaving must keep.
func assertNoOverlap(t *testing.T, m *Manager) {
	t.Helper()
	busy := append(m.Commitments(), m.HeldTasks()...)
	for i := 0; i < len(busy); i++ {
		for j := i + 1; j < len(busy); j++ {
			if overlaps(busy[i].TravelStart, busy[i].End, busy[j].TravelStart, busy[j].End) {
				t.Fatalf("busy intervals overlap: %s/%s (%v–%v) and %s/%s (%v–%v)",
					busy[i].Workflow, busy[i].Task, busy[i].TravelStart, busy[i].End,
					busy[j].Workflow, busy[j].Task, busy[j].TravelStart, busy[j].End)
			}
		}
	}
}

// TestPropertyRandomInterleavingsNeverOverlap drives seeded random
// interleavings of Hold/HoldBatch/commit/Release/Remove/Expire
// across several workflows and asserts after every operation that busy
// intervals never overlap and bookkeeping stays consistent.
func TestPropertyRandomInterleavingsNeverOverlap(t *testing.T) {
	workflows := []string{"wf-0", "wf-1", "wf-2"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, sim := newManager(Preferences{}, nil)
			// Small discrete time grid so collisions are frequent.
			slot := func() (time.Time, time.Time) {
				start := t0.Add(time.Hour + time.Duration(rng.Intn(24))*15*time.Minute)
				return start, start.Add(time.Duration(1+rng.Intn(3)) * 20 * time.Minute)
			}
			taskOf := func(i int) string { return fmt.Sprintf("t%02d", i) }
			for op := 0; op < 600; op++ {
				wf := workflows[rng.Intn(len(workflows))]
				task := taskOf(rng.Intn(10))
				start, end := slot()
				md := meta(task, start, end)
				switch rng.Intn(6) {
				case 0:
					_, _ = m.Hold(wf, md, sim.Now().Add(time.Duration(rng.Intn(120))*time.Second))
				case 1:
					m.HoldBatch(wf, []proto.TaskMeta{md}, sim.Now().Add(time.Duration(rng.Intn(120))*time.Second))
				case 2:
					_, _ = commit(m, wf, md, time.Time{})
				case 3:
					m.Release(wf, model.TaskID(task))
				case 4:
					m.Remove(wf, model.TaskID(task))
				case 5:
					sim.Advance(time.Duration(rng.Intn(60)) * time.Second)
					m.Expire(sim.Now())
				}
				assertNoOverlap(t, m)
			}
		})
	}
}

// TestPropertyConcurrentSessionsNeverOverlap races several goroutines
// (one per workflow) against one manager under -race; the calendar
// invariant must hold at the end regardless of interleaving.
func TestPropertyConcurrentSessionsNeverOverlap(t *testing.T) {
	m, sim := newManager(Preferences{}, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			wf := fmt.Sprintf("wf-%d", w)
			for op := 0; op < 300; op++ {
				task := fmt.Sprintf("t%02d", rng.Intn(8))
				start := t0.Add(time.Hour + time.Duration(rng.Intn(16))*30*time.Minute)
				md := meta(task, start, start.Add(45*time.Minute))
				switch rng.Intn(5) {
				case 0:
					_, _ = m.Hold(wf, md, sim.Now().Add(time.Minute))
				case 1:
					_, _ = commit(m, wf, md, time.Time{})
				case 2:
					m.Release(wf, model.TaskID(task))
				case 3:
					m.Remove(wf, model.TaskID(task))
				case 4:
					m.Expire(sim.Now())
				}
			}
		}()
	}
	wg.Wait()
	assertNoOverlap(t, m)
}

// TestNoOverlappingCommitmentsInvariant: whatever sequence of holds,
// commits, and releases happens, committed busy intervals never overlap.
func TestNoOverlappingCommitmentsInvariant(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	for i := 0; i < 40; i++ {
		start := t0.Add(time.Duration(i%13) * 20 * time.Minute).Add(time.Hour)
		md := meta(string(rune('a'+i)), start, start.Add(30*time.Minute))
		_, _ = commit(m, "wf", md, time.Time{})
	}
	cs := m.Commitments()
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if overlaps(cs[i].TravelStart, cs[i].End, cs[j].TravelStart, cs[j].End) {
				t.Fatalf("commitments overlap: %+v and %+v", cs[i], cs[j])
			}
		}
	}
}

// --- Commitment leases (PR 6 fault tolerance) ---

func TestCommitHeldRequiresLiveHold(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	md := meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour))
	// No hold at all: refused even though the slot is free.
	if _, err := m.CommitHeld("wf", "t", time.Time{}); !errors.Is(err, ErrNoHold) {
		t.Fatalf("CommitHeld without hold err = %v, want ErrNoHold", err)
	}
	if _, err := m.Hold("wf", md, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	c, err := m.CommitHeld("wf", "t", t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if c.Task != "t" || m.Holds() != 0 {
		t.Errorf("CommitHeld did not convert hold: %+v holds=%d", c, m.Holds())
	}
	// An expired-then-swept hold refuses too.
	if _, err := m.Hold("wf2", meta("u", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	m.Expire(t0.Add(2 * time.Minute))
	if _, err := m.CommitHeld("wf2", "u", time.Time{}); !errors.Is(err, ErrNoHold) {
		t.Fatalf("CommitHeld after expiry err = %v, want ErrNoHold", err)
	}
}

func TestExpireSweepsOnlyLapsedLeases(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	// a: lease lapses at +1min; b: lease at +1h; c: no lease (permanent).
	if _, err := commit(m, "wf", meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := commit(m, "wf", meta("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := commit(m, "wf", meta("c", t0.Add(5*time.Hour), t0.Add(6*time.Hour)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if swept, _ := m.Expire(t0.Add(30 * time.Second)); len(swept) != 0 {
		t.Fatalf("early sweep removed %d commitments", len(swept))
	}
	swept, _ := m.Expire(t0.Add(2 * time.Minute))
	if len(swept) != 1 || swept[0].Task != "a" {
		t.Fatalf("sweep at +2min = %+v, want just a", swept)
	}
	if _, ok := m.Get("wf", "a"); ok {
		t.Error("swept commitment still stored")
	}
	// The slot is free again for another session.
	if _, err := m.Hold("wf2", meta("a2", t0.Add(time.Hour), t0.Add(2*time.Hour)), t0.Add(3*time.Minute)); err != nil {
		t.Fatalf("slot not returned to the pool: %v", err)
	}
	// b survives until its lease lapses; c never expires.
	swept, next := m.Expire(t0.Add(24 * time.Hour))
	if len(swept) != 1 || swept[0].Task != "b" {
		t.Fatalf("final sweep = %+v, want just b", swept)
	}
	if _, ok := m.Get("wf", "c"); !ok || !next.IsZero() {
		t.Fatalf("lease-less commitment kept = %v, next = %v; want kept and nothing left to lapse", ok, next)
	}
}

func TestRefreshCommitLeaseExtendsAndClears(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if err := m.RefreshCommitLease("wf", "t", t0.Add(time.Hour)); err == nil {
		t.Fatal("refresh of missing commitment succeeded")
	}
	if _, err := commit(m, "wf", meta("t", t0.Add(time.Hour), t0.Add(2*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshCommitLease("wf", "t", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if swept, _ := m.Expire(t0.Add(10 * time.Minute)); len(swept) != 0 {
		t.Fatalf("refreshed lease swept early: %+v", swept)
	}
	// Zero lease makes the commitment permanent.
	if err := m.RefreshCommitLease("wf", "t", time.Time{}); err != nil {
		t.Fatal(err)
	}
	if swept, _ := m.Expire(t0.Add(1000 * time.Hour)); len(swept) != 0 {
		t.Fatalf("permanent commitment swept: %+v", swept)
	}
}

// TestExpireReportsNextDeadline: next is the earliest deadline left on the
// calendar, a hold's bid deadline or a commitment's lease alike — what the
// host arms its one sweep timer at.
func TestExpireReportsNextDeadline(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if lapsed, next := m.Expire(t0); len(lapsed) != 0 || !next.IsZero() {
		t.Fatalf("Expire on empty manager = %v, %v", lapsed, next)
	}
	if _, err := commit(m, "wf", meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)), t0.Add(10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := commit(m, "wf", meta("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), t0.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Hold("wf", meta("c", t0.Add(5*time.Hour), t0.Add(6*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		now, next  time.Time
		lapsed     int
		holds, cal int
	}{
		{now: t0, next: t0.Add(time.Minute), holds: 1, cal: 2},                            // the hold lapses first
		{now: t0.Add(90 * time.Second), next: t0.Add(2 * time.Minute), cal: 2},            // hold gone, b's lease next
		{now: t0.Add(3 * time.Minute), next: t0.Add(10 * time.Minute), lapsed: 1, cal: 1}, // b lapsed, a's lease next
		{now: t0.Add(10 * time.Minute), next: t0.Add(10 * time.Minute), cal: 1},           // a deadline is not past at its own instant
		{now: t0.Add(10*time.Minute + time.Nanosecond), lapsed: 1},                        // nothing left: the sweep goes quiet
	} {
		lapsed, next := m.Expire(step.now)
		if len(lapsed) != step.lapsed || !next.Equal(step.next) || m.Holds() != step.holds || len(m.Commitments()) != step.cal {
			t.Fatalf("Expire(+%v) = %d lapsed, next %v, %d holds, %d commitments; want %d, %v, %d, %d",
				step.now.Sub(t0), len(lapsed), next, m.Holds(), len(m.Commitments()), step.lapsed, step.next, step.holds, step.cal)
		}
	}
}

// TestDropWorkflowTakesHoldsAndCommitments: the end-of-workflow drop
// removes both kinds of record for its workflow and nothing of another's —
// unlike ReleaseWorkflow, which the benchmark pins as hold-only.
func TestDropWorkflowTakesHoldsAndCommitments(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	for i, wf := range []string{"wf-a", "wf-b"} {
		base := t0.Add(time.Duration(1+4*i) * time.Hour)
		if _, err := commit(m, wf, meta("c", base, base.Add(time.Hour)), t0.Add(5*time.Minute)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Hold(wf, meta("h", base.Add(2*time.Hour), base.Add(3*time.Hour)), t0.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	m.DropWorkflow("wf-a")
	if _, ok := m.Get("wf-a", "c"); ok || m.Holds() != 1 || len(m.Commitments()) != 1 {
		t.Fatalf("after DropWorkflow(wf-a): wf-a commitment kept = %v, %d holds, %d commitments; want only wf-b's", ok, m.Holds(), len(m.Commitments()))
	}
	if held := m.HeldTasks(); held[0].Workflow != "wf-b" {
		t.Fatalf("surviving hold belongs to %q", held[0].Workflow)
	}
	// The freed intervals are bookable again.
	if _, err := m.Hold("wf-c", meta("x", t0.Add(time.Hour), t0.Add(4*time.Hour)), t0.Add(time.Minute)); err != nil {
		t.Fatalf("dropped workflow's slots not returned to the pool: %v", err)
	}
}

// --- HoldBatch (batched call-for-bids reservations) ---

// TestHoldBatchPartialFailureLeaksNoHolds: a batch mixing feasible and
// infeasible metas reserves exactly the feasible ones — per-task
// declines, never leaked holds, and the failed entries carry errors.
func TestHoldBatchPartialFailureLeaksNoHolds(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	deadline := t0.Add(time.Minute)
	// "blocker" belongs to another session and owns 2h–3h.
	if _, err := m.Hold("other", meta("blocker", t0.Add(2*time.Hour), t0.Add(3*time.Hour)), deadline); err != nil {
		t.Fatal(err)
	}
	results := m.HoldBatch("wf", []proto.TaskMeta{
		meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)),       // fine
		meta("b", t0.Add(150*time.Minute), t0.Add(4*time.Hour)), // overlaps blocker
		meta("c", t0.Add(5*time.Hour), t0.Add(6*time.Hour)),     // fine
		meta("d", t0.Add(-time.Hour), t0),                       // already started
	}, deadline)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("feasible metas failed: %v, %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, ErrSlotBusy) {
		t.Fatalf("overlapping meta err = %v, want ErrSlotBusy", results[1].Err)
	}
	if results[3].Err == nil {
		t.Fatal("past window accepted")
	}
	if got := m.Holds(); got != 3 { // blocker + a + c
		t.Fatalf("holds = %d, want 3 (failed entries must not leak)", got)
	}
	if _, err := m.Hold("wf", meta("e", t0.Add(150*time.Minute), t0.Add(4*time.Hour)), deadline); !errors.Is(err, ErrSlotBusy) {
		t.Fatalf("declined slot unexpectedly reusable: %v", err)
	}
}

// TestHoldBatchIntraBatchConflict: within one batch, earlier metas win
// the calendar exactly as sequential Holds would — the second of two
// overlapping metas is declined.
func TestHoldBatchIntraBatchConflict(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	results := m.HoldBatch("wf", []proto.TaskMeta{
		meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)),
		meta("b", t0.Add(90*time.Minute), t0.Add(3*time.Hour)),
	}, t0.Add(time.Minute))
	if results[0].Err != nil {
		t.Fatalf("first meta failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrSlotBusy) {
		t.Fatalf("second overlapping meta err = %v, want ErrSlotBusy", results[1].Err)
	}
	if m.Holds() != 1 {
		t.Fatalf("holds = %d, want 1", m.Holds())
	}
}

// TestHoldBatchRefreshesExistingHold: re-soliciting a task the session
// already reserved (engine replanning) refreshes the hold's deadline and
// keeps its arbitration sequence.
func TestHoldBatchRefreshesExistingHold(t *testing.T) {
	m, sim := newManager(Preferences{}, nil)
	md := meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour))
	if _, err := m.Hold("wf", md, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	sim.Advance(30 * time.Second)
	results := m.HoldBatch("wf", []proto.TaskMeta{md}, sim.Now().Add(time.Minute))
	if results[0].Err != nil {
		t.Fatalf("refresh via batch failed: %v", results[0].Err)
	}
	if m.Holds() != 1 {
		t.Fatalf("holds = %d, want 1", m.Holds())
	}
	// The original deadline (t0+1min) would have expired by +2min; the
	// refreshed one (t0+30s+1min) has not at +80s.
	if m.Expire(t0.Add(80 * time.Second)); m.Holds() != 1 {
		t.Fatal("refreshed hold expired early")
	}
	if m.Expire(t0.Add(3 * time.Minute)); m.Holds() != 0 {
		t.Fatal("hold outlived its refreshed deadline")
	}
}

// TestHoldBatchMatchesSequentialHolds: for a conflict-free batch the
// batched and per-task paths produce identical reservations.
func TestHoldBatchMatchesSequentialHolds(t *testing.T) {
	metas := []proto.TaskMeta{
		meta("a", t0.Add(time.Hour), t0.Add(2*time.Hour)),
		meta("b", t0.Add(3*time.Hour), t0.Add(4*time.Hour)),
		meta("c", t0.Add(5*time.Hour), t0.Add(6*time.Hour)),
	}
	deadline := t0.Add(time.Minute)
	batched, _ := newManager(Preferences{}, nil)
	results := batched.HoldBatch("wf", metas, deadline)
	sequential, _ := newManager(Preferences{}, nil)
	for i, md := range metas {
		c, err := sequential.Hold("wf", md, deadline)
		if err != nil || results[i].Err != nil {
			t.Fatalf("meta %d: sequential err=%v batch err=%v", i, err, results[i].Err)
		}
		if got := results[i].Commitment; got.Task != c.Task || !got.Start.Equal(c.Start) ||
			!got.End.Equal(c.End) || !got.TravelStart.Equal(c.TravelStart) {
			t.Fatalf("meta %d: batch commitment %+v != sequential %+v", i, got, c)
		}
	}
	if batched.Holds() != sequential.Holds() {
		t.Fatalf("holds: batch %d vs sequential %d", batched.Holds(), sequential.Holds())
	}
}

// TestScheduleFastPathAllocBounds pins the hot read and write paths of
// the calendar: a feasibility check scans the maps without allocating,
// and a hold costs its one record.
func TestScheduleFastPathAllocBounds(t *testing.T) {
	start, end := t0.Add(time.Hour), t0.Add(time.Hour+10*time.Minute)
	md := meta("hot", start, end)

	t.Run("CanCommit", func(t *testing.T) {
		m, _ := newManager(Preferences{}, nil)
		if _, err := commit(m, "wf-bg", meta("bg", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), time.Time{}); err != nil {
			t.Fatal(err)
		}
		testutil.AllocBound(t, 0, func() {
			if _, err := m.CanCommit(md); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("HoldRelease", func(t *testing.T) {
		m, _ := newManager(Preferences{}, nil)
		deadline := t0.Add(time.Hour)
		// Steady state: one record allocation per hold; the maps reuse
		// their buckets across the release/re-hold cycle.
		testutil.AllocBound(t, 1, func() {
			if _, err := m.Hold("wf", md, deadline); err != nil {
				t.Fatal(err)
			}
			m.Release("wf", model.TaskID("hot"))
		})
	})
}
