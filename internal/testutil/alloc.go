package testutil

import "testing"

// allocRuns is how many times AllocBound samples f. AllocsPerRun
// averages over the runs, so a one-off allocation (a lazily grown
// buffer that warmup missed) still shows up as a fractional average
// and fails a zero bound.
const allocRuns = 100

// AllocBound asserts a resource bound the startest way: f must average
// at most maxAllocs heap allocations per run, measured with
// testing.AllocsPerRun after one warmup call. It turns a benchmark
// number into a regular test that fails on regression — the repo's
// 0-alloc hot-path claims (proto.EncodeTo pooled encode, Scenario.bfs
// warmed sweeps, transport.Sender.Send on an idle link) are
// pinned with it in the default `go test ./...` tier.
//
// The warmup call lets f populate pools, grow scratch buffers, and
// fault in lazily allocated state: the bound is on the steady state,
// which is what the hot-path claims are about.
//
// Under the race detector the check is skipped: instrumentation
// allocates on paths the real runtime does not, so bounds would pin
// the instrumentation, not the code.
func AllocBound(t testing.TB, maxAllocs float64, f func()) {
	t.Helper()
	if RaceEnabled {
		// Explicit return: *testing.T.Skip aborts via Goexit, but a
		// testing.TB is not obliged to.
		t.Skip("allocation bounds are not meaningful under the race detector")
		return
	}
	f() // warmup: pools, scratch buffers, lazy state
	if avg := testing.AllocsPerRun(allocRuns, f); avg > maxAllocs {
		t.Fatalf("allocations: %g allocs/run in steady state, want ≤ %g", avg, maxAllocs)
	}
}
