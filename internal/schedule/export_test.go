package schedule

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// RefCalendar is refCalendar for this package's external tests, which
// drive the calendar through an auction participant (internal/auction
// imports this package, so they cannot live inside it).
type RefCalendar = refCalendar

// NewRefCalendar returns an empty reference calendar admitting max
// reservations.
func NewRefCalendar(max int) *RefCalendar { return &refCalendar{max: max} }

// Clone returns a copy of the reference calendar.
func (r *refCalendar) Clone() *RefCalendar {
	return &refCalendar{max: r.max, busy: slices.Clone(r.busy)}
}

// Clone returns a copy of the calendar on clk: its holds, commitments and
// arbitration counter, in records of its own.
func (m *Manager) Clone(clk clock.Clock) *Manager {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := NewManager(clk, m.mobility, m.prefs)
	c.seq = m.seq
	for k, r := range m.holds {
		cp := *r
		c.holds[k] = &cp
	}
	for k, r := range m.commits {
		cp := *r
		c.commits[k] = &cp
	}
	return c
}

// Hold is refCalendar.hold, reporting only whether it reserved the slot.
func (r *refCalendar) Hold(wf string, md proto.TaskMeta, deadline time.Time) bool {
	_, class := r.hold(wf, md, deadline)
	return class == ""
}

// Extend moves the deadline of wf's hold on task (hold) or the lease of its
// commitment to to, reporting whether there is one.
func (r *refCalendar) Extend(wf string, task model.TaskID, hold bool, to time.Time) bool {
	i := r.find(wf, task, hold)
	switch {
	case i < 0:
		return false
	case hold:
		r.busy[i].expiry = to
	default:
		r.busy[i].lease = to
	}
	return true
}

// Commit converts wf's hold on task into a commitment leased until lease,
// reporting whether there was a hold to convert.
func (r *refCalendar) Commit(wf string, task model.TaskID, lease time.Time) bool {
	i := r.find(wf, task, true)
	if i >= 0 {
		r.convert(i, lease)
	}
	return i >= 0
}

// Drop removes wf's hold and commitment on task, or on every task when task
// is empty.
func (r *refCalendar) Drop(wf string, task model.TaskID) {
	r.drop(func(e refEntry) bool { return e.c.Workflow == wf && (task == "" || e.c.Task == task) })
}

// Next returns the earliest hold deadline or commitment lease, zero when
// nothing can lapse.
func (r *refCalendar) Next() time.Time {
	var next time.Time
	for _, e := range r.busy {
		d := e.lease
		if e.hold {
			d = e.expiry
		}
		if !d.IsZero() && (next.IsZero() || d.Before(next)) {
			next = d
		}
	}
	return next
}

// Expire is what Manager.Expire(now) must do: drop every hold and leased
// commitment whose deadline has passed, returning the lapsed commitments
// sorted by start and the earliest deadline left.
func (r *refCalendar) Expire(now time.Time) (lapsed []Commitment, next time.Time) {
	r.drop(func(e refEntry) bool { return e.hold && now.After(e.expiry) })
	lapsed = r.drop(func(e refEntry) bool { return !e.hold && !e.lease.IsZero() && now.After(e.lease) })
	sortByStart(lapsed)
	return lapsed, r.Next()
}

// List is refCalendar.list: the holds in arrival order, or the
// commitments sorted as Manager.Commitments sorts them.
func (r *refCalendar) List(hold bool) []Commitment { return r.list(hold) }

// Key renders the calendar's entries in arrival order with their deadlines
// relative to since: two calendars with one key answer every later request
// alike.
func (r *refCalendar) Key(since time.Time) string {
	var b strings.Builder
	for _, e := range r.busy {
		fmt.Fprintf(&b, "%s/%s hold=%v %v %v;", e.c.Workflow, e.c.Task, e.hold, e.expiry.Sub(since), e.lease.Sub(since))
	}
	return b.String()
}
