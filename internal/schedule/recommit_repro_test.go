package schedule

import (
	"testing"
	"time"

	"openwf/internal/proto"
)

// TestMovedKeyFreesOldInterval is the regression for the stale-record bug
// of the sharded calendar (ROADMAP P0 after PR 10): a key whose record is
// replaced or dropped and then re-booked into a different window must
// leave its old interval free. Each row moves key wf/a from the old
// window to the new one by a different path.
func TestMovedKeyFreesOldInterval(t *testing.T) {
	oldWin := meta("a", t0.Add(time.Hour), t0.Add(time.Hour+2*time.Minute))
	newWin := meta("a", t0.Add(2*time.Hour), t0.Add(2*time.Hour+2*time.Minute))
	deadline := t0.Add(time.Minute)
	book := func(t *testing.T, m *Manager, md proto.TaskMeta) {
		t.Helper()
		if _, err := commit(m, "wf", md, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	hold := func(t *testing.T, m *Manager, md proto.TaskMeta) {
		t.Helper()
		if _, err := m.Hold("wf", md, deadline); err != nil {
			t.Fatal(err)
		}
	}
	rows := []struct {
		name string
		move func(t *testing.T, m *Manager)
		// newBusy says whether the move books the new window (a HoldBatch
		// refresh keeps the original reservation and books nothing).
		newBusy bool
	}{
		{"Release then re-Hold", func(t *testing.T, m *Manager) {
			hold(t, m, oldWin)
			m.Release("wf", "a")
			hold(t, m, newWin)
		}, true},
		{"HoldBatch refresh of a held key", func(t *testing.T, m *Manager) {
			hold(t, m, oldWin)
			res := m.HoldBatch(nil, "wf", []proto.TaskMeta{newWin}, deadline.Add(time.Minute))
			if resultErr(res[0]) != nil || !res[0].Commitment.Start.Equal(oldWin.Start) {
				t.Fatalf("refresh = %+v, want the original hold", res[0])
			}
			m.Release("wf", "a")
		}, false},
		{"Remove then re-Commit", func(t *testing.T, m *Manager) {
			book(t, m, oldWin)
			if !m.Remove("wf", "a") {
				t.Fatal("Remove found no commitment")
			}
			book(t, m, newWin)
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m, _ := newManager(Preferences{}, nil)
			row.move(t, m)
			if _, err := m.CanCommit(meta("b", oldWin.Start, oldWin.End)); err != nil {
				t.Errorf("old interval still busy: %v", err)
			}
			_, err := m.CanCommit(meta("b", newWin.Start, newWin.End))
			if busy := err != nil; busy != row.newBusy {
				t.Errorf("new interval busy = %v (%v), want %v", busy, err, row.newBusy)
			}
		})
	}
}
