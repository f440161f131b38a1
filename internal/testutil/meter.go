package testutil

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Meter attributes the process's heap allocations to the phases of a
// scenario run again and again: Start opens a run's first phase, and Mark
// ends the phase that began at the previous Start or Mark. It counts every
// goroutine's allocations, so it reads steadily only under Quiet.
type Meter struct {
	ms     runtime.MemStats
	last   uint64
	allocs []uint64
}

// NewMeter returns a meter of phases phases, numbered from 0.
func NewMeter(phases int) *Meter { return &Meter{allocs: make([]uint64, phases)} }

// Start opens a run.
func (m *Meter) Start() {
	runtime.ReadMemStats(&m.ms)
	m.last = m.ms.Mallocs
}

// Mark ends phase p.
func (m *Meter) Mark(p int) {
	runtime.ReadMemStats(&m.ms)
	m.allocs[p] += m.ms.Mallocs - m.last
	m.last = m.ms.Mallocs
}

// Reset forgets every phase's count.
func (m *Meter) Reset() { clear(m.allocs) }

// Check logs each phase's allocations per run, averaged over runs, and
// fails t for a phase above its bound; names and bounds are indexed by
// phase. Under the race detector, whose instrumentation allocates, it
// skips t instead.
func (m *Meter) Check(t testing.TB, runs int, names []string, bounds []float64) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation bounds are not meaningful under the race detector")
		return
	}
	for p, n := range m.allocs {
		avg := float64(n) / float64(runs)
		t.Logf("%s: %.1f allocations per run", names[p], avg)
		if avg > bounds[p] {
			t.Errorf("%s: %.1f allocations per run, want ≤ %g", names[p], avg, bounds[p])
		}
	}
}

// Quiet turns the collector off and runs on one P until t ends, so a
// Meter's phases repeat: a collection empties the pools, which then
// allocate again, and a pool's Get on another P than its Put misses.
func Quiet(t testing.TB) {
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}
