package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"openwf/internal/proto"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDecl
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root, two
// levels above this package.
func loadBenchmarkFile() (*benchmarkFile, error) {
	const path = "../../BENCHMARK.json"
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// TestMetricsMatch checks BENCHMARK.json against what the benchmark emits,
// in both directions: every declared metric and workload is emitted, every
// emitted one is declared, with the same unit, direction and bound. The
// gated end-to-end metrics are BENCHMARK.json's end_to_end; the others join
// the per-layer metrics under per_layer.
func TestMetricsMatch(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var gated, layers []metricDecl
	for _, d := range endToEnd {
		if !d.Gated {
			layers = append(layers, d.metricDecl)
			continue
		}
		gated = append(gated, d.metricDecl)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if s, _ := e2e("setup_s"); d.Bound > s.Bound {
			t.Errorf("%s: bound %v above setup_s's %v, which is to be the largest", d.Name, d.Bound, s.Bound)
		}
	}
	layers = append(layers, perLayer...)
	declared := make([]metricDecl, len(bf.EndToEnd))
	for i, m := range bf.EndToEnd {
		declared[i] = m.metricDecl
		if d, _ := e2e(m.Name); d.Bound != m.Bound {
			t.Errorf("%s: bound %v declared, %v applied", m.Name, m.Bound, d.Bound)
		}
	}
	for _, c := range []struct {
		what           string
		declared, emit []metricDecl
	}{
		{"end_to_end", declared, gated},
		{"per_layer", bf.PerLayer, layers},
	} {
		if missing, mismatched := diffDecls(c.declared, c.emit); len(missing)+len(mismatched) > 0 {
			t.Errorf("%s declared but not emitted: %v; unit or direction differs: %v", c.what, missing, mismatched)
		}
		if missing, _ := diffDecls(c.emit, c.declared); len(missing) > 0 {
			t.Errorf("%s emitted but not declared: %v", c.what, missing)
		}
	}
	var declaredW, emittedW []string
	for _, w := range bf.Workloads {
		declaredW = append(declaredW, w.Name)
	}
	for _, w := range workloads {
		emittedW = append(emittedW, w.name)
	}
	sort.Strings(declaredW)
	sort.Strings(emittedW)
	if !slices.Equal(declaredW, emittedW) {
		t.Errorf("workloads declared %v, emitted %v", declaredW, emittedW)
	}
}

// TestWorkloadsSmoke runs each workload for one traced half-second
// repetition with every check on, and checks that the driver's line then
// carries exactly the declared metric names.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for half a second")
	}
	if err := raiseFDLimit(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := clientsK()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rp := repPlan{warm: 50 * time.Millisecond, slice: 500 * time.Millisecond}
			res, err := runRep(ctx, w, 1, k, rp, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			mb, err := footprint(ctx, w, 1, k)
			if err != nil {
				t.Fatal(err)
			}
			reps := []*repResult{res}
			wr := summarizeWorkload(w, k, runs{mb, reps, reps}, nil, true)
			if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, violations %v", wr.Attempted, wr.Failed, wr.Violations)
			}
			if res.agg.ops == 0 || res.agg.p50("initiate") <= 0 {
				t.Errorf("traced repetition recorded %d workflows", res.agg.ops)
			}
			executes := res.agg.executes > 0
			if want := w.name == "wireless_execute"; executes != want {
				t.Errorf("execute spans recorded: %v, want %v", executes, want)
			}
			for _, layers := range []bool{false, true} {
				want := perLayer
				if !layers {
					want = nil
				}
				for _, d := range endToEnd {
					if d.Gated != layers {
						want = append(want[:len(want):len(want)], d.metricDecl)
					}
				}
				line := newDriverLine(&wr, layers)
				if len(line.Metrics) != len(want) {
					t.Errorf("layers=%v: %d metrics emitted, %d declared", layers, len(line.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := line.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("layers=%v: metric %s emitted as %+v (present %v)", layers, d.Name, v, ok)
					}
				}
			}
			for _, m := range wr.EndToEnd {
				applies := w.name == "wireless_execute" || (m.Name != "execute_p50_ms" && m.Name != "execute_tail_ms")
				if applies && m.Median <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, m.Median)
				}
			}
		})
	}
}

// TestReleaseWorkflowKeepsCommitments guards the first trap: a plan's
// commitments survive Schedule.ReleaseWorkflow, which drops holds only, so
// plans released with it pile up on the calendars; release by Remove per
// allocated task leaves nothing.
func TestReleaseWorkflowKeepsCommitments(t *testing.T) {
	fx, err := buildChain(1, nil, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	plan, err := fx.comm.Initiate(context.Background(), fx.initiator, fx.pool[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fx.comm.Members() {
		h, _ := fx.comm.Host(id)
		h.Schedule.ReleaseWorkflow(plan.WorkflowID)
	}
	if got := fx.comm.TotalCommitments(); got != chainLen {
		t.Fatalf("after ReleaseWorkflow %d commitments remain, want all %d", got, chainLen)
	}
	var out opSample
	fx.release(plan, &out)
	if got := fx.comm.TotalCommitments(); got != 0 || !out.released {
		t.Fatalf("after release %d commitments remain (released=%v), want 0", got, out.released)
	}
}

// TestExecuteWaitsForLastWindow guards the second trap: Execute called
// before the windows open measures StartDelay + (n−1) × TaskWindow of
// timer, not data flow, so the client starts it only once the last
// task's window has opened.
func TestExecuteWaitsForLastWindow(t *testing.T) {
	fx, err := buildChain(1, nil, hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	ctx := context.Background()
	plan, err := fx.comm.Initiate(ctx, fx.initiator, fx.pool[0])
	if err != nil {
		t.Fatal(err)
	}
	var last time.Time
	for _, meta := range plan.Metas {
		if meta.Start.After(last) {
			last = meta.Start
		}
	}
	if !last.After(time.Now()) {
		t.Skip("allocation outlasted the start delay; nothing to wait for")
	}
	var out opSample
	var top tracedOp
	if err := fx.execute(ctx, plan, &out, &top); err != nil {
		t.Fatal(err)
	}
	if top.execStart.Before(last) {
		t.Errorf("Execute started %v before the last window opened", last.Sub(top.execStart))
	}
	fx.release(plan, &out)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99}, {1000, 99}, {999, 90}, {400, 90}, {100, 90}, {99, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestLatencySummary(t *testing.T) {
	ramp := func(n int, base float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = base + float64(i)
		}
		return xs
	}
	// Large repetitions: the median over repetitions of each one's own p50.
	big := [][]float64{ramp(1001, 0), ramp(1001, 100), ramp(1001, 1000)}
	if v, lo, hi, n, used := latencySummary(big, 50); v != 600 || lo != 500 || hi != 1500 || n != 3003 || used != 50 {
		t.Errorf("per-repetition p50 = %v [%v..%v] n=%d p%v", v, lo, hi, n, used)
	}
	if _, _, _, _, used := latencySummary(big, -1); used != 99 {
		t.Errorf("tail of 1001-sample repetitions is p%v, want p99", used)
	}
	// One small repetition pools everything.
	small := [][]float64{ramp(1001, 0), ramp(99, 0)}
	if v, _, _, n, used := latencySummary(small, -1); n != 1100 || used != 99 || v != percentile(append(ramp(1001, 0), ramp(99, 0)...), 99) {
		t.Errorf("pooled tail = %v n=%d p%v", v, n, used)
	}
	if v, _, _, n, _ := latencySummary(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty summary = %v n=%d", v, n)
	}
}

// TestPairEvents checks the k-th send ↔ k-th receive pairing per host,
// peer and kind: two overlapping round trips to one peer pair in order,
// and a one-way send pairs with its receive.
func TestPairEvents(t *testing.T) {
	at := func(us int) time.Duration { return time.Duration(us) * time.Microsecond }
	const i, p = proto.Addr("host00"), proto.Addr("host01")
	events := []traceEvent{
		{at(10), p, i, false, "fragment-query"},
		{at(12), p, i, false, "fragment-query"},
		{at(20), p, i, true, "fragment-reply"},
		{at(25), i, p, false, "fragment-reply"},
		{at(30), p, i, true, "fragment-reply"},
		{at(31), i, p, true, "cancel"},
		{at(38), i, p, false, "fragment-reply"},
		{at(40), p, i, false, "cancel"},
		{at(50), p, i, false, "award"}, // never answered: stays unpaired
	}
	rts, oneWay := pairEvents(events)
	want := []roundTrip{
		{"fragment-query", p, at(10), at(20), at(25)},
		{"fragment-query", p, at(12), at(30), at(38)},
	}
	if len(rts) != len(want) {
		t.Fatalf("paired %d round trips, want %d: %+v", len(rts), len(want), rts)
	}
	for k := range want {
		if rts[k] != want[k] {
			t.Errorf("round trip %d = %+v, want %+v", k, rts[k], want[k])
		}
	}
	if len(oneWay) != 1 || oneWay[0] != (interval{at(31), at(40)}) {
		t.Errorf("one-way legs = %+v, want the cancel from 31us to 40us", oneWay)
	}
	// The estimated start mirrors link-back (5us) before the request's
	// arrival, but never precedes the parent.
	if s := rtSpan(rts[0], at(0)); s.start != at(5) || s.end != at(25) || len(s.children) != 3 {
		t.Errorf("rt span = [%v, %v] with %d children", s.start, s.end, len(s.children))
	}
	if s := rtSpan(rts[0], at(8)); s.start != at(8) {
		t.Errorf("rt span start = %v, want it floored at the parent's 8us", s.start)
	}
}

// TestSpanSelfTime checks self time on a hand-built tree: duration minus
// the union of the children, overlap counted once and children clipped to
// the parent.
func TestSpanSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := &span{name: "initiate", start: msec(0), end: msec(100)}
	a := root.add(&span{name: "rt.a", start: msec(10), end: msec(40)})
	root.add(&span{name: "rt.b", start: msec(30), end: msec(60)})  // overlaps a by 10
	root.add(&span{name: "rt.c", start: msec(90), end: msec(120)}) // 20 beyond the parent
	a.add(&span{name: "serve.a", start: msec(20), end: msec(25)})
	if got := root.selfTime(); got != msec(40) {
		t.Errorf("root self time = %v, want 40ms (100 - [10,60] - [90,100])", got)
	}
	if got := a.selfTime(); got != msec(25) {
		t.Errorf("rt.a self time = %v, want 25ms", got)
	}
	if got := a.children[0].selfTime(); got != msec(5) {
		t.Errorf("leaf self time = %v, want its whole 5ms", got)
	}
}

func TestJudge(t *testing.T) {
	lat := func(med, lo, hi float64) *metricValue {
		return &metricValue{metricDecl: metricDecl{"initiate_p50_ms", "ms", lower}, Median: med, Min: lo, Max: hi}
	}
	rate := func(med, lo, hi float64) *metricValue {
		return &metricValue{metricDecl: metricDecl{"initiates_per_s", "1/s", higher}, Median: med, Min: lo, Max: hi}
	}
	for _, c := range []struct {
		name       string
		prev, next *metricValue
		want       verdict
	}{
		{"steady", lat(10, 9.8, 10.2), lat(10.5, 10.3, 10.7), unchanged},
		{"slower beyond the bound", lat(10, 9.8, 10.2), lat(11.5, 11.3, 11.7), regression},
		{"faster beyond the bound", lat(10, 9.8, 10.2), lat(8, 7.9, 8.1), improved},
		{"rate fell beyond the bound", rate(100, 98, 102), rate(85, 84, 86), regression},
		{"rate rose", rate(100, 98, 102), rate(120, 118, 122), improved},
		{"wide spread, overlapping ranges", lat(10, 8, 13), lat(11.5, 9, 14), unresolved},
		{"wide spread hides no change either", lat(10, 8, 13), lat(10.1, 8, 13), unresolved},
		{"wide spread, every new run slower than every old one", lat(10, 9, 11.5), lat(14, 12, 16), regression},
		{"wide spread, every new rate higher", rate(100, 90, 115), rate(150, 130, 160), improved},
	} {
		if _, got := judge(c.prev, c.next, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareLikeWithLike checks that reports measured differently are
// refused and that a p99 is not judged against a p90.
func TestCompareLikeWithLike(t *testing.T) {
	tail := metricValue{metricDecl: metricDecl{"initiate_tail_ms", "ms", lower}, Median: 10, Min: 9.9, Max: 10.1, N: 5000}
	side := func(seconds int, p float64) *report {
		return &report{
			Env:       envStamp{NProc: 2, K: 4, Seconds: seconds},
			Workloads: []workloadReport{{Name: "w", Correct: true, TailPercentile: p, EndToEnd: []metricValue{tail}}},
		}
	}
	if err := sameProtocol(side(20, 99), side(30, 99)); err == nil {
		t.Error("a 20 s report was accepted against a 30 s one")
	}
	if err := sameProtocol(side(20, 99), side(20, 99)); err != nil {
		t.Error(err)
	}
	if _, open := compareReports(io.Discard, side(20, 99), side(20, 99)); open != 0 {
		t.Errorf("equal tails at one percentile: %d pairs unresolved, want 0", open)
	}
	if _, open := compareReports(io.Discard, side(20, 99), side(20, 90)); open != 1 {
		t.Errorf("a p99 against a p90: %d pairs unresolved, want 1", open)
	}
}
