package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/space"
)

// refCalendar is the reference the property test holds the Manager to: one
// slice of busy intervals in arrival order, every question answered by a
// linear scan. It covers what the generator below can produce — future
// windows, a host at the origin moving at 1 m/s, the clock standing at t0.
type refCalendar struct {
	max  int
	busy []refEntry
}

type refEntry struct {
	c             Commitment
	hold          bool
	expiry, lease time.Time
}

// plan answers a request for md: the planned commitment and "", or a
// failure class (see classOf) with, for "busy", the blocking commitment —
// the first overlap in arrival order, i.e. the lowest sequence.
func (r *refCalendar) plan(md proto.TaskMeta) (Commitment, string) {
	if len(r.busy) >= r.max {
		return Commitment{}, "capacity"
	}
	c := Commitment{Task: md.Task, Start: md.Start, End: md.End, TravelStart: md.Start, Meta: md}
	if md.Location != nil {
		from, free := space.Point{}, t0
		for _, e := range r.busy {
			if e.c.Meta.Location != nil && !e.c.End.After(md.Start) && e.c.End.After(free) {
				from, free = *e.c.Meta.Location, e.c.End
			}
		}
		c.TravelStart = md.Start.Add(-space.TravelTime(from, *md.Location, 1))
		if c.TravelStart.Before(free) {
			return Commitment{}, "unreachable"
		}
	}
	for _, e := range r.busy {
		if overlaps(c.TravelStart, c.End, e.c.TravelStart, e.c.End) {
			return e.c, "busy"
		}
	}
	return c, ""
}

// find returns the index of the hold (or commitment) for a key, or -1.
func (r *refCalendar) find(wf string, task model.TaskID, hold bool) int {
	for i, e := range r.busy {
		if e.c.Workflow == wf && e.c.Task == task && e.hold == hold {
			return i
		}
	}
	return -1
}

// drop removes every entry gone reports true for and returns them.
func (r *refCalendar) drop(gone func(refEntry) bool) []Commitment {
	var out []Commitment
	kept := r.busy[:0]
	for _, e := range r.busy {
		if gone(e) {
			out = append(out, e.c)
		} else {
			kept = append(kept, e)
		}
	}
	r.busy = kept
	return out
}

func (r *refCalendar) hold(wf string, md proto.TaskMeta, deadline time.Time) (Commitment, string) {
	if r.find(wf, md.Task, true) >= 0 {
		return Commitment{}, "held"
	}
	if r.find(wf, md.Task, false) >= 0 {
		return Commitment{}, "other"
	}
	c, class := r.plan(md)
	if class == "" {
		c.Workflow = wf
		r.busy = append(r.busy, refEntry{c: c, hold: true, expiry: deadline})
	}
	return c, class
}

// convert turns hold i into a commitment in place, keeping its sequence.
func (r *refCalendar) convert(i int, lease time.Time) Commitment {
	r.busy[i].hold, r.busy[i].expiry, r.busy[i].lease = false, time.Time{}, lease
	return r.busy[i].c
}

// list returns the held tasks in arrival order, or the commitments sorted
// the way Manager.Commitments sorts them.
func (r *refCalendar) list(hold bool) []Commitment {
	var out []Commitment
	for _, e := range r.busy {
		if e.hold == hold {
			out = append(out, e.c)
		}
	}
	if !hold {
		sortByStart(out)
	}
	return out
}

func sameList(a, b []Commitment) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// classOf sorts a Manager error into the outcome classes the reference
// distinguishes.
func classOf(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrSlotBusy):
		return "busy"
	case errors.Is(err, ErrAlreadyHeld):
		return "held"
	case errors.Is(err, ErrNoHold):
		return "nohold"
	case strings.Contains(err.Error(), "at commitment capacity"):
		return "capacity"
	case strings.Contains(err.Error(), "cannot reach"):
		return "unreachable"
	}
	return "other" // already committed; nothing to refresh
}

// TestCrossShardDifferentialVsUnshardedOracle is the calendar's model-based
// property test (the name dates from the sharded calendar it first
// guarded and is kept so the test's history stays one line). Seeded random
// operation sequences — including re-Hold and batch refresh of live keys
// with moved windows, sweeps (Expire must return the reference's lapsed
// commitments and its earliest remaining deadline) and whole-workflow
// drops — run against the Manager and against
// refCalendar. After every operation the outcome class and, on success,
// the commitment must match; a conflict must name the reference's
// lowest-sequence blocker; Commitments, HeldTasks and Holds must match;
// busy intervals must not overlap; and CanCommit must agree with the
// reference on a grid of probe windows, so an interval the reference calls
// free is never refused.
func TestCrossShardDifferentialVsUnshardedOracle(t *testing.T) {
	workflows := []string{"wf-0", "wf-1", "wf-2", "wf-3"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := NewManager(clock.NewSim(t0), space.NewMover(space.Point{}, 1), Preferences{MaxCommitments: 12})
			ref := &refCalendar{max: 12}

			// Windows start at second granularity within a few minutes of
			// t0+1h and run 15 s – 5 min, so collisions are frequent.
			window := func() (time.Time, time.Time) {
				start := t0.Add(time.Hour +
					time.Duration(rng.Intn(8))*time.Minute +
					time.Duration(rng.Intn(60))*time.Second)
				return start, start.Add(time.Duration(15+rng.Intn(285)) * time.Second)
			}
			metaFor := func(task model.TaskID) proto.TaskMeta {
				start, end := window()
				if rng.Intn(5) == 0 {
					// Located tasks: travel (≤ 45 s at 1 m/s) extends the
					// busy interval backwards.
					return locMeta(string(task), start, end, space.Point{X: float64(rng.Intn(45))})
				}
				return meta(string(task), start, end)
			}
			randTask := func() model.TaskID { return model.TaskID(fmt.Sprintf("t%02d", rng.Intn(12))) }
			// live picks the key of a random live hold (or commitment),
			// falling back to a random key when there is none.
			live := func(hold bool) (string, model.TaskID) {
				if cs := ref.list(hold); len(cs) > 0 {
					c := cs[rng.Intn(len(cs))]
					return c.Workflow, c.Task
				}
				return workflows[rng.Intn(len(workflows))], randTask()
			}

			op := 0
			check := func(what string, got Commitment, err error, want Commitment, class string) {
				t.Helper()
				switch {
				case classOf(err) != class:
					t.Fatalf("op %d: %s = %v, reference says %q", op, what, err, class)
				case class == "busy":
					if by := fmt.Sprintf("conflicts with %q of workflow %q", want.Task, want.Workflow); !strings.Contains(err.Error(), by) {
						t.Fatalf("op %d: %s = %v, reference blocker %s", op, what, err, by)
					}
				case class == "" && !reflect.DeepEqual(got, want):
					t.Fatalf("op %d: %s\n got %+v\nwant %+v", op, what, got, want)
				}
			}
			hold := func(wf string, md proto.TaskMeta, deadline time.Time) {
				t.Helper()
				got, err := m.Hold(wf, md, deadline)
				want, class := ref.hold(wf, md, deadline)
				check("Hold", got, err, want, class)
			}
			holdBatch := func(wf string, metas []proto.TaskMeta, deadline time.Time) {
				t.Helper()
				for i, res := range m.HoldBatch(nil, wf, metas, deadline) {
					var want Commitment
					var class string
					if j := ref.find(wf, metas[i].Task, true); j >= 0 {
						ref.busy[j].expiry = deadline
						want = ref.busy[j].c
					} else {
						want, class = ref.hold(wf, metas[i], deadline)
					}
					check(fmt.Sprintf("HoldBatch[%d]", i), res.Commitment, resultErr(res), want, class)
				}
			}
			commitHeld := func(wf string, task model.TaskID, lease time.Time) {
				t.Helper()
				got, err := m.CommitHeld(wf, task, lease)
				want, class := Commitment{}, "nohold"
				if i := ref.find(wf, task, true); i >= 0 {
					want, class = ref.convert(i, lease), ""
				}
				check("CommitHeld", got, err, want, class)
			}
			// commit books md the way an award does: hold, then CommitHeld.
			commit := func(wf string, md proto.TaskMeta, deadline time.Time) {
				t.Helper()
				var lease time.Time
				if rng.Intn(2) == 0 {
					lease = t0.Add(time.Duration(1+rng.Intn(10)) * time.Minute)
				}
				hold(wf, md, deadline)
				commitHeld(wf, md.Task, lease)
			}

			release := func(wf string, task model.TaskID) {
				m.Release(wf, task)
				ref.drop(func(e refEntry) bool { return e.hold && e.c.Workflow == wf && e.c.Task == task })
			}
			remove := func(wf string, task model.TaskID) {
				t.Helper()
				want := len(ref.drop(func(e refEntry) bool { return !e.hold && e.c.Workflow == wf && e.c.Task == task })) == 1
				if got := m.Remove(wf, task); got != want {
					t.Fatalf("op %d: Remove(%s, %s) = %v, reference %v", op, wf, task, got, want)
				}
			}

			for ; op < 500; op++ {
				wf, task := workflows[rng.Intn(len(workflows))], randTask()
				deadline := t0.Add(time.Duration(30+rng.Intn(120)) * time.Second)
				switch rng.Intn(17) {
				case 0, 1, 2:
					hold(wf, metaFor(task), deadline)
				case 3: // a batch that may refresh a live hold with a moved window
					lwf, ltask := live(true)
					metas := []proto.TaskMeta{metaFor(ltask)}
					for i := rng.Intn(4); i > 0; i-- {
						metas = append(metas, metaFor(randTask()))
					}
					holdBatch(lwf, metas, deadline)
				case 4:
					commit(wf, metaFor(task), deadline)
				case 5: // re-Hold of a committed key: refused, the record stands
					lwf, ltask := live(false)
					hold(lwf, metaFor(ltask), deadline)
				case 6: // Release then re-Hold, moved
					lwf, ltask := live(true)
					release(lwf, ltask)
					hold(lwf, metaFor(ltask), deadline)
				case 7: // Remove then re-book, moved
					lwf, ltask := live(false)
					remove(lwf, ltask)
					commit(lwf, metaFor(ltask), deadline)
				case 8:
					commitHeld(wf, task, time.Time{})
				case 9: // a one-meta batch: refreshes a held key, holds a free one
					holdBatch(wf, []proto.TaskMeta{metaFor(task)}, deadline)
				case 10:
					release(wf, task)
				case 11:
					want := len(ref.drop(func(e refEntry) bool { return e.hold && e.c.Workflow == wf }))
					if got := m.ReleaseWorkflow(wf); got != want {
						t.Fatalf("op %d: ReleaseWorkflow(%s) = %d, reference %d", op, wf, got, want)
					}
				case 12, 13: // a sweep on the bid-window scale, or on the lease scale
					now := t0.Add(time.Duration(rng.Intn(180)) * time.Second)
					if rng.Intn(2) == 0 {
						now = t0.Add(time.Duration(rng.Intn(12)) * time.Minute)
					}
					ref.drop(func(e refEntry) bool { return e.hold && now.After(e.expiry) })
					want := ref.drop(func(e refEntry) bool { return !e.hold && !e.lease.IsZero() && now.After(e.lease) })
					sortByStart(want)
					var wantNext time.Time
					for _, e := range ref.busy {
						d := e.lease
						if e.hold {
							d = e.expiry
						}
						if !d.IsZero() && (wantNext.IsZero() || d.Before(wantNext)) {
							wantNext = d
						}
					}
					if got, next := m.Expire(now); !sameList(got, want) || !next.Equal(wantNext) {
						t.Fatalf("op %d: Expire(+%v)\n got %+v, next %v\nwant %+v, next %v", op, now.Sub(t0), got, next, want, wantNext)
					}
				case 14:
					remove(wf, task)
				case 16: // the workflow ended: holds and commitments both go
					ref.drop(func(e refEntry) bool { return e.c.Workflow == wf })
					m.DropWorkflow(wf)
				case 15:
					md := metaFor(task)
					got, err := m.CanCommit(md)
					want, class := ref.plan(md)
					check("CanCommit", got, err, want, class)
				}

				if got, want := m.Commitments(), ref.list(false); !sameList(got, want) {
					t.Fatalf("op %d: commitments\n got %+v\nwant %+v", op, got, want)
				}
				if got, want := m.HeldTasks(), ref.list(true); !sameList(got, want) {
					t.Fatalf("op %d: held tasks\n got %+v\nwant %+v", op, got, want)
				}
				if got, want := m.Holds(), len(ref.list(true)); got != want {
					t.Fatalf("op %d: Holds = %d, reference %d", op, got, want)
				}
				assertNoOverlap(t, m)
				// One-minute probes across the whole range the generator
				// books into: busy exactly where the reference is busy.
				for i := 0; i < 16; i++ {
					start := t0.Add(58*time.Minute + time.Duration(i)*time.Minute)
					probe := meta("probe", start, start.Add(time.Minute))
					got, err := m.CanCommit(probe)
					want, class := ref.plan(probe)
					check(fmt.Sprintf("probe %d", i), got, err, want, class)
				}
			}
		})
	}
}
