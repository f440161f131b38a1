package schedule_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
)

// Every interleaving of two sessions on one participant, exhaustively: the
// participant's side of the protocol is message in, value out, so every
// order in which its messages can arrive can be run, and checked after
// each message against the reference calendar.

var t0 = time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)

// kind is one step of an order: a message a session sends the participant,
// or the clock reaching the next lease edge.
type kind int

const (
	callForBids kind = iota
	// hold is a held award's first half (Participant.HoldAward); the host
	// commits its tasks next, but another workflow's message may be handled
	// in between.
	hold
	award
	refresh
	cancel
	tick
)

// session is one allocation session: its two tasks, and which award and
// which cancel it sends.
type session struct {
	wf    string
	metas []proto.TaskMeta
	tasks []model.TaskID
	// held sends the award held (proto.Award.Hold: decided from memory,
	// the participant holds as it commits); otherwise it commits the holds
	// the call for bids took.
	held bool
	// whole sends the cancel with no task, the release at the workflow's
	// end; otherwise it names both tasks, a failed try's compensation.
	whole bool
}

// variant names the session's award and cancel.
func (s session) variant() string {
	award, cancel := "auctioned", "tasks"
	if s.held {
		award = "held"
	}
	if s.whole {
		cancel = "whole"
	}
	return fmt.Sprintf("%s=%s,cancel-%s", s.wf, award, cancel)
}

// kinds are the steps the session sends once each.
func (s session) kinds() []kind {
	if s.held {
		return []kind{callForBids, hold, award, refresh, cancel}
	}
	return []kind{callForBids, award, refresh, cancel}
}

// step is one step of an order: session s's message k, or a tick (s < 0).
type step struct {
	s int
	k kind
}

// sessions returns the two contending sessions: each wants t1 then t2 in
// one-minute windows an hour on, B's half a window later than A's, so B's
// t1 overlaps both of A's tasks and B's t2 overlaps A's t2.
func sessions(heldA, wholeA, heldB, wholeB bool) []session {
	window := func(task model.TaskID, from time.Duration) proto.TaskMeta {
		start := t0.Add(time.Hour + from)
		return proto.TaskMeta{Task: task, Mode: model.Conjunctive, Start: start, End: start.Add(time.Minute)}
	}
	ss := []session{
		{wf: "A", held: heldA, whole: wholeA},
		{wf: "B", held: heldB, whole: wholeB},
	}
	for i := range ss {
		from := time.Duration(i) * 30 * time.Second
		ss[i].metas = []proto.TaskMeta{window("t1", from), window("t2", from+time.Minute)}
		ss[i].tasks = []model.TaskID{"t1", "t2"}
	}
	return ss
}

// name renders a step the way a failing order is printed.
func (st step) name(ss []session) string {
	if st.s < 0 {
		return "tick"
	}
	s := ss[st.s]
	switch st.k {
	case callForBids:
		return s.wf + ":call-for-bids"
	case hold:
		return s.wf + ":held-award(hold)"
	case award:
		if s.held {
			return s.wf + ":held-award(commit)"
		}
		return s.wf + ":award"
	case refresh:
		return s.wf + ":lease-refresh"
	}
	if s.whole {
		return s.wf + ":cancel{}"
	}
	return s.wf + ":cancel{t1 t2}"
}

// world is one participant on the simulated clock, with the reference
// calendar its calendar must equal.
type world struct {
	sim      *clock.Sim
	services *service.Manager
	sched    *schedule.Manager
	p        *auction.Participant
	ref      *schedule.RefCalendar
}

func newWorld(t *testing.T) *world {
	sim := clock.NewSim(t0)
	services := service.NewManager(sim)
	for _, task := range []model.TaskID{"t1", "t2"} {
		if err := services.Register(service.Registration{Descriptor: service.Descriptor{Task: task}}); err != nil {
			t.Fatal(err)
		}
	}
	sched := schedule.NewManager(sim, nil, schedule.Preferences{})
	return &world{sim, services, sched, auction.NewParticipant(sim, services, sched, 0), schedule.NewRefCalendar(16)}
}

// clone returns a world in w's state to run one more step on. The
// participant keeps no state of its own, and the services are only read.
func (w *world) clone() *world {
	sim := clock.NewSim(w.sim.Now())
	sched := w.sched.Clone(sim)
	return &world{sim, w.services, sched, auction.NewParticipant(sim, w.services, sched, 0), w.ref.Clone()}
}

// held reports whether the calendar holds wf's task.
func (w *world) held(wf string, task model.TaskID) bool {
	return slices.ContainsFunc(w.sched.HeldTasks(), func(c schedule.Commitment) bool { return c.Workflow == wf && c.Task == task })
}

// committed reports whether the calendar has wf's task committed.
func (w *world) committed(wf string, task model.TaskID) bool {
	_, ok := w.sched.Get(wf, task)
	return ok
}

// apply runs one step on the participant and on the reference, and checks
// what the step answered and left: each verdict against the reference and
// against the calendar it leaves, then the calendar against the reference
// and for overlaps.
func (w *world) apply(ss []session, st step) error {
	now := w.sim.Now()
	if st.s < 0 {
		// The clock reaches the next lease edge and the host sweeps there —
		// where nothing may lapse, a deadline passing strictly after it —
		// and once more just past it.
		edge := w.ref.Next()
		for _, at := range []time.Time{edge, edge.Add(time.Nanosecond)} {
			w.sim.AdvanceTo(at)
			got, next := w.sched.Expire(at)
			want, wantNext := w.ref.Expire(at)
			if !slices.EqualFunc(got, want, sameCommitment) || !next.Equal(wantNext) {
				return fmt.Errorf("Expire(+%v) lapsed %v, next +%v; want %v, next +%v (no hold past its deadline)",
					at.Sub(t0), tasksOf(got), next.Sub(t0), tasksOf(want), wantNext.Sub(t0))
			}
		}
		return w.check()
	}
	s := ss[st.s]
	switch st.k {
	case callForBids:
		reply := w.p.HandleCallForBidsBatch(s.wf, proto.CallForBidsBatch{Metas: s.metas})
		deadline := now.Add(auction.DefaultBidWindow)
		for _, m := range s.metas {
			want := w.ref.Extend(s.wf, m.Task, true, deadline) || w.ref.Hold(s.wf, m, deadline)
			bid := slices.ContainsFunc(reply.Bids, func(b proto.Bid) bool { return b.Task == m.Task })
			if bid == slices.Contains(reply.Declines, m.Task) {
				return fmt.Errorf("%s: %s is bid for %v and declined %v", s.wf, m.Task, bid, !bid)
			}
			if bid != want || bid != w.held(s.wf, m.Task) {
				return fmt.Errorf("%s: bid for %s %v, reference %v, held %v", s.wf, m.Task, bid, want, w.held(s.wf, m.Task))
			}
		}
	case hold:
		at, took := now.Add(auction.DefaultBidWindow), false
		for _, m := range s.metas {
			took = w.ref.Hold(s.wf, m, at) || took // a hold the workflow has stays as it is
		}
		// The deadline is the host's cue to sweep: zero when no hold was taken.
		if deadline := w.p.HoldAward(s.wf, proto.Award{Meta: s.metas[0], More: s.metas[1:], Hold: true}); deadline.IsZero() == took || took && !deadline.Equal(at) {
			return fmt.Errorf("%s: held award's deadline %v, reference took holds %v", s.wf, deadline, took)
		}
	case award:
		lease := now.Add(auction.DefaultCommitLease)
		for _, m := range s.metas {
			_, v := w.p.HandleAward(s.wf, proto.Award{Meta: m})
			want := w.ref.Commit(s.wf, m.Task, lease)
			if v.OK != want || v.OK != w.committed(s.wf, m.Task) || w.held(s.wf, m.Task) {
				return fmt.Errorf("%s: award of %s ok %v (%s), reference %v, committed %v, held %v",
					s.wf, m.Task, v.OK, v.Reason, want, w.committed(s.wf, m.Task), w.held(s.wf, m.Task))
			}
		}
	case refresh:
		ack := w.p.HandleLeaseRefresh(s.wf, proto.LeaseRefresh{Tasks: s.tasks})
		lease := now.Add(auction.DefaultCommitLease)
		for _, task := range s.tasks {
			want := !w.ref.Extend(s.wf, task, false, lease)
			if missing := slices.Contains(ack.Missing, task); missing != want || missing == w.committed(s.wf, task) {
				return fmt.Errorf("%s: refresh of %s missing %v, reference %v, committed %v", s.wf, task, missing, want, w.committed(s.wf, task))
			}
		}
	case cancel:
		if s.whole {
			w.p.HandleCancel(s.wf, proto.Cancel{})
			w.ref.Drop(s.wf, "")
			for _, c := range append(w.sched.Commitments(), w.sched.HeldTasks()...) {
				if c.Workflow == s.wf {
					return fmt.Errorf("%s: a taskless cancel left %s", s.wf, c.Task)
				}
			}
		} else {
			w.p.HandleCancel(s.wf, proto.Cancel{Tasks: s.tasks})
			for _, task := range s.tasks {
				w.ref.Drop(s.wf, task)
			}
		}
	}
	return w.check()
}

// check holds the calendar to the reference, and its busy intervals to no
// overlap.
func (w *world) check() error {
	commits, holds := w.sched.Commitments(), w.sched.HeldTasks()
	if want := w.ref.List(false); !slices.EqualFunc(commits, want, sameCommitment) {
		return fmt.Errorf("commitments %v, reference %v", tasksOf(commits), tasksOf(want))
	}
	if want := w.ref.List(true); !slices.EqualFunc(holds, want, sameCommitment) {
		return fmt.Errorf("holds %v, reference %v", tasksOf(holds), tasksOf(want))
	}
	busy := append(commits, holds...)
	for i, a := range busy {
		for _, b := range busy[i+1:] {
			if a.TravelStart.Before(b.End) && b.TravelStart.Before(a.End) {
				return fmt.Errorf("%s/%s and %s/%s overlap", a.Workflow, a.Task, b.Workflow, b.Task)
			}
		}
	}
	return nil
}

func sameCommitment(a, b schedule.Commitment) bool {
	return a.Workflow == b.Workflow && a.Task == b.Task && a.Start.Equal(b.Start) && a.End.Equal(b.End) && a.TravelStart.Equal(b.TravelStart)
}

func tasksOf(cs []schedule.Commitment) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Workflow + "/" + string(c.Task)
	}
	return out
}

// explore runs every order of ss's messages, with a tick at every lease
// edge, breadth first, and returns the first failing order — the shortest
// — with its error, and how many distinct states it visited. Two orders
// that deliver the same messages and leave the clock and the calendar the
// same reach one state, and what follows it is run once, each next step on
// a clone of that state's world. Worlds share one thing, the calendar's
// record pool, so a fault that leaks through it (a record recycled twice)
// may fail a later order than the one that made it.
func explore(t *testing.T, ss []session) (failing []step, states int, err error) {
	type node struct {
		order []step
		w     *world
	}
	seen := make(map[string]bool)
	queue := []node{{w: newWorld(t)}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		var next []step
		for s := range ss {
			for _, k := range ss[s].kinds() {
				if !slices.Contains(n.order, step{s, k}) {
					next = append(next, step{s, k})
				}
			}
		}
		if !n.w.ref.Next().IsZero() {
			next = append(next, step{-1, tick})
		}
		for _, st := range next {
			order := append(slices.Clip(n.order), st)
			w := n.w.clone()
			if err := w.apply(ss, st); err != nil {
				return order, len(seen), err
			}
			var key strings.Builder
			for s := range ss {
				for _, k := range ss[s].kinds() {
					fmt.Fprintf(&key, "%t,", slices.Contains(order, step{s, k}))
				}
			}
			fmt.Fprintf(&key, "|%v|%s", w.sim.Now().Sub(t0), w.ref.Key(t0))
			if seen[key.String()] {
				continue
			}
			seen[key.String()] = true
			queue = append(queue, node{order, w})
		}
	}
	return nil, len(seen), nil
}

// TestEveryInterleavingOneParticipant: two sessions of two tasks each
// contend for one participant's windows. Each sends a call for bids, an
// award (held or not), a lease refresh and a cancel (naming its tasks or
// none), in every order, interleaved with the other's, and the clock
// reaches every lease edge in between. After every step: the participant's
// verdicts agree with the reference calendar and with the calendar they
// leave, the calendar equals the reference, no busy intervals overlap, a
// sweep leaves no hold past its deadline, and a taskless cancel leaves
// nothing of its workflow. A failure prints the shortest failing order.
func TestEveryInterleavingOneParticipant(t *testing.T) {
	for _, held := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		for _, whole := range [][2]bool{{true, false}, {false, true}} {
			ss := sessions(held[0], whole[0], held[1], whole[1])
			t.Run(ss[0].variant()+"/"+ss[1].variant(), func(t *testing.T) {
				order, states, err := explore(t, ss)
				if err != nil {
					names := make([]string, len(order))
					for i, st := range order {
						names[i] = st.name(ss)
					}
					t.Fatalf("after %d states, shortest failing order: %s\n%v", states, strings.Join(names, " → "), err)
				}
				t.Logf("%d states", states)
			})
		}
	}
}
