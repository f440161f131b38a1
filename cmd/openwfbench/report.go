package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// metricValue is one reported metric: the schema every output shares.
// Median is the reported value; Min and Max are its extremes over the
// repetitions and N the number of samples behind it.
type metricValue struct {
	metricDecl
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// envStamp records where and how a report was measured.
type envStamp struct {
	Go      string `json:"go"`
	GOARCH  string `json:"goarch"`
	NProc   int    `json:"nproc"`
	K       int    `json:"k"`
	Seed    int64  `json:"seed"`
	Commit  string `json:"commit"`
	Seconds int    `json:"seconds"`
}

func stampEnv(seed int64, k, seconds int) envStamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envStamp{
		Go: runtime.Version(), GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(), K: k, Seed: seed, Commit: commit,
		Seconds: seconds,
	}
}

// workloadReport is one workload's part of a report.
type workloadReport struct {
	Name        string  `json:"name"`
	Clients     int     `json:"clients"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	Correct     bool    `json:"correct"`
	// Violations lists failed per-repetition invariants and the first few
	// operation errors.
	Violations []string `json:"violations,omitempty"`
	// TailPercentile is the percentile initiate_tail_ms reports, and
	// execute_tail_ms where operations execute: each one then does both.
	TailPercentile float64       `json:"tail_percentile"`
	EndToEnd       []metricValue `json:"end_to_end,omitempty"`
	PerLayer       []metricValue `json:"per_layer,omitempty"`
}

// report is the one schema of every file the benchmark writes.
type report struct {
	Schema    string           `json:"schema"`
	Env       envStamp         `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

const reportSchema = "openwfbench/1"

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (wr *workloadReport) metric(name string) *metricValue {
	for i := range wr.EndToEnd {
		if wr.EndToEnd[i].Name == name {
			return &wr.EndToEnd[i]
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perRep reduces one value per repetition to a metricValue.
func perRep(d metricDecl, xs []float64) metricValue {
	lo, hi := minMax(xs)
	return metricValue{metricDecl: d, Median: median(xs), Min: lo, Max: hi, N: len(xs)}
}

// delta returns after − before of a cumulative counter.
func delta[T int64 | uint64](after, before T) float64 { return float64(after) - float64(before) }

// okOps counts a repetition's verified operations.
func okOps(ops []opSample) int {
	n := 0
	for _, o := range ops {
		if o.err == nil {
			n++
		}
	}
	return n
}

// runs is everything measured of one workload.
type runs struct {
	liveHeapMB       float64
	untraced, traced []*repResult
}

// summarizeEndToEnd reduces a workload's footprint and untraced
// repetitions to the end-to-end metrics, in the order endToEnd declares
// them.
func summarizeEndToEnd(rs runs) (vals []metricValue, tailP float64) {
	var initiate, execute [][]float64
	per := map[string][]float64{"live_heap_mb": {rs.liveHeapMB}}
	for _, r := range rs.untraced {
		var in, ex []float64
		for _, o := range r.ops {
			if o.err != nil {
				continue
			}
			in = append(in, o.initMs)
			if o.executed {
				ex = append(ex, o.execMs)
			}
		}
		initiate, execute = append(initiate, in), append(execute, ex)
		n := float64(max(1, len(in)))
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("initiates_per_s", float64(len(in))/r.wallS)
		add("round_trips_per_initiate", delta(r.after.transport.Calls, r.before.transport.Calls)/n)
		add("allocs_per_initiate", delta(r.after.mallocs, r.before.mallocs)/n)
		add("alloc_kb_per_initiate", delta(r.after.allocated, r.before.allocated)/1024/n)
		add("cpu_ms_per_initiate", ms(r.after.cpu-r.before.cpu)/n)
		add("startup_ms", r.startupMs)
		add("setup_s", r.setupS)
	}
	latency := map[string]struct {
		reps [][]float64
		p    float64 // < 0: the tail rule
	}{
		"initiate_p50_ms": {initiate, 50}, "initiate_tail_ms": {initiate, -1},
		"execute_p50_ms": {execute, 50}, "execute_tail_ms": {execute, -1},
	}
	for _, d := range endToEnd {
		l, ok := latency[d.Name]
		if !ok {
			vals = append(vals, perRep(d.metricDecl, per[d.Name]))
			continue
		}
		v, lo, hi, n, used := latencySummary(l.reps, l.p)
		vals = append(vals, metricValue{d.metricDecl, v, lo, hi, n})
		if d.Name == "initiate_tail_ms" {
			tailP = used
		}
	}
	return vals, tailP
}

// summarizePerLayer reduces a workload's repetitions and the probes to
// the per-layer metrics, in the order perLayer declares them. In-situ
// counts come from the untraced repetitions, span figures from the traced
// ones, and trace.overhead_share from the throughput of the two.
func summarizePerLayer(rs runs, probes map[string]float64) []metricValue {
	per := make(map[string][]float64)
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var plainRate, tracedRate []float64
	for _, r := range rs.untraced {
		n := float64(max(1, okOps(r.ops)))
		plainRate = append(plainRate, float64(okOps(r.ops))/r.wallS)
		ts, tb := r.after.transport, r.before.transport
		frames := delta(ts.Frames, tb.Frames)
		add("transport.envelopes_per_initiate", delta(ts.Envelopes, tb.Envelopes)/n)
		add("transport.frames_per_initiate", frames/n)
		add("transport.batch_share", delta(ts.Batches, tb.Batches)/max(1, frames))
		add("transport.frames_dropped", delta(ts.FramesDropped, tb.FramesDropped))
		ds, db := r.after.discovery, r.before.discovery
		add("discovery.hits_per_initiate", delta(ds.Hits, db.Hits)/n)
		add("discovery.misses_per_initiate", delta(ds.Misses, db.Misses)/n)
		add("discovery.ads_per_s", delta(ds.Ads, db.Ads)/r.wallS)
		add("tcpnet.conns_open", float64(r.connsOpen))
		add("host.active_sessions_peak", float64(r.sessions))
		add("schedule.holds_left", float64(r.holdsLeft))
		add("schedule.commitments_left", float64(r.commitmentsLeft))
		add("runtime.goroutines_left", float64(r.goroutinesLeft))
		add("runtime.mutex_wait_ms_per_s", (r.after.mutexWait-r.before.mutexWait)*1000/r.wallS)
		add("runtime.gc_pause_ms_per_s", ms(r.after.gcPause-r.before.gcPause)/r.wallS)
		add("runtime.cpu_util", (r.after.cpu-r.before.cpu).Seconds()/r.wallS)
		add("runtime.retained_kb_per_initiate", r.retainedMB*1024/n)
		add("runtime.peak_heap_mb", r.peakHeapMB)
		add("daemon.rejected", float64(r.rejected))
		var release, wait, overhead, left []float64
		for _, o := range r.ops {
			if o.err != nil {
				continue
			}
			if o.released {
				release = append(release, o.releaseUs)
			}
			if o.viaDaemon {
				wait, overhead = append(wait, o.waitMs), append(overhead, o.overheadUs)
			}
			if o.executed {
				left = append(left, float64(o.leftAfterExec))
			}
		}
		add("schedule.release_us", median(release))
		add("daemon.queue_wait_ms", median(wait))
		add("daemon.dispatch_overhead_us", median(overhead))
		add("schedule.commitments_left_after_execute", mean(left))
	}

	agg := newAggregates()
	for _, r := range rs.traced {
		tracedRate = append(tracedRate, float64(okOps(r.ops))/r.wallS)
		agg.merge(r.agg)
	}
	spans := map[string]float64{}
	if agg.ops > 0 {
		n := float64(agg.ops)
		spans["core.explored_nodes"] = float64(agg.explored) / n
		spans["core.collection_rounds"] = float64(agg.rounds) / n
		spans["engine.construct_phase_ms"] = agg.p50("construct-phase")
		spans["engine.allocate_phase_ms"] = agg.p50("allocate-phase")
		spans["engine.self_ms"] = median(agg.selfMs)
		routed := 0
		for _, k := range rtKinds {
			spans["engine.rt_count."+k] = float64(agg.rtCount[k]) / n
			spans["engine.rt_ms."+k] = agg.p50("rt." + k)
			spans["host.serve_us."+k] = agg.p50("serve."+k) * 1000
			if k != "award" {
				routed += agg.rtCount[k]
			}
		}
		spans["engine.cfb_sweeps_per_initiate"] = float64(agg.sweeps) / n
		spans["engine.replans_per_initiate"] = float64(agg.replans) / n
		spans["auction.cfb_per_award"] = float64(agg.rtCount["call-for-bids-batch"]) / float64(max(1, agg.awards))
		spans["transport.link_wait_ms"] = median(agg.linkWait)
		// Every query and solicitation sweep asks the index once, so the
		// routed round trips over the index's answers is the fan-out.
		if asked := median(per["discovery.hits_per_initiate"]) + median(per["discovery.misses_per_initiate"]); asked > 0 {
			spans["discovery.fanout"] = float64(routed) / n / asked
		}
		if agg.executes > 0 {
			spans["exec.distribute_ms"] = agg.p50("distribute")
			spans["exec.dataflow_ms"] = agg.p50("goal")
			spans["exec.hop_ms"] = agg.p50("hop")
			spans["exec.start_lag_us"] = median(agg.startLagUs)
			spans["exec.label_transfers_per_execute"] = float64(agg.transfers) / float64(agg.executes)
		}
	}
	if len(plainRate) > 0 && len(tracedRate) > 0 && median(plainRate) > 0 {
		spans["trace.overhead_share"] = 1 - median(tracedRate)/median(plainRate)
	}

	vals := make([]metricValue, 0, len(perLayer))
	for _, d := range perLayer {
		switch {
		case per[d.Name] != nil:
			vals = append(vals, perRep(d, per[d.Name]))
		default:
			v, ok := spans[d.Name]
			if !ok {
				v = probes[d.Name]
			}
			vals = append(vals, metricValue{metricDecl: d, Median: v, Min: v, Max: v, N: 1})
		}
	}
	return vals
}

// summarizeWorkload builds a workload's report from what was measured.
func summarizeWorkload(w *workload, k int, rs runs, probes map[string]float64, wantLayers bool) workloadReport {
	wr := workloadReport{Name: w.name, Clients: w.clients(k), GOMAXPROCS: w.procs(), Correct: true}
	const maxListed = 8
	note := func(s string) {
		wr.Correct = false
		if len(wr.Violations) < maxListed {
			wr.Violations = append(wr.Violations, s)
		}
	}
	for _, r := range append(append([]*repResult(nil), rs.untraced...), rs.traced...) {
		for _, o := range r.ops {
			wr.Attempted++
			if o.err != nil {
				wr.Failed++
				note(o.err.Error())
			}
		}
		for _, v := range r.violations {
			note(v)
		}
	}
	if wr.Attempted > 0 {
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
	}
	wr.EndToEnd, wr.TailPercentile = summarizeEndToEnd(rs)
	if wantLayers {
		wr.PerLayer = summarizePerLayer(rs, probes)
	}
	return wr
}

// printReport writes every metric by name with its unit.
func printReport(w io.Writer, r *report) {
	e := r.Env
	fmt.Fprintf(w, "openwfbench  %s %s  nproc=%d K=%d  seed=%d  commit=%s  %ds x %d reps per workload\n",
		e.Go, e.GOARCH, e.NProc, e.K, e.Seed, e.Commit, e.Seconds, reps)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s  clients=%d GOMAXPROCS=%d attempted=%d failed=%d failed_share=%g correct=%v  (initiate_tail_ms is p%g)\n",
			wr.Name, wr.Clients, wr.GOMAXPROCS, wr.Attempted, wr.Failed, wr.FailedShare, wr.Correct, wr.TailPercentile)
		for _, v := range wr.Violations {
			fmt.Fprintf(w, "  VIOLATION: %s\n", v)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, group := range [][]metricValue{wr.EndToEnd, wr.PerLayer} {
			for _, m := range group {
				fmt.Fprintf(tw, "  %s\t%.4g\t%s\t[%.4g .. %.4g]\tn=%d\t%s is better\n", m.Name, m.Median, m.Unit, m.Min, m.Max, m.N, m.Better)
			}
		}
		tw.Flush()
	}
}

// driverLine is the last line of a single-workload run's standard output,
// as the benchmark driver reads it.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newDriverLine builds the line for -trace 0, the gated end-to-end metrics,
// or for -trace 1, the per-layer metrics and the end-to-end metrics that
// are not gated.
func newDriverLine(wr *workloadReport, layers bool) driverLine {
	dl := driverLine{
		Correct: wr.Correct, Attempted: max(1, wr.Attempted), Failed: wr.Failed,
		Metrics: make(map[string]driverValue),
	}
	vals := wr.EndToEnd
	if layers {
		vals = append(vals[:len(vals):len(vals)], wr.PerLayer...)
	}
	for _, m := range vals {
		if d, ok := e2e(m.Name); ok && d.Gated == layers {
			continue
		}
		dl.Metrics[m.Name] = driverValue{Value: m.Median, Unit: m.Unit}
	}
	return dl
}

// spanFile is what -trace-out writes: per workload, the per-name span
// aggregates over every traced workflow and the kept span trees.
type spanFile struct {
	Schema    string         `json:"schema"`
	Env       envStamp       `json:"env"`
	Workloads []workloadSpan `json:"workloads"`
}

type workloadSpan struct {
	Name      string     `json:"name"`
	Workflows int        `json:"workflows"`
	Names     []spanName `json:"names"`
	Spans     []keptSpan `json:"spans"`
}

// spanName aggregates every span of one name in one workload's traced
// repetitions.
type spanName struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50Ms   float64 `json:"p50_ms"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

const spanSchema = "openwfbench-spans/1"

func newWorkloadSpan(name string, traced []*repResult) workloadSpan {
	ws := workloadSpan{Name: name}
	agg := newAggregates()
	for _, r := range traced {
		agg.merge(r.agg)
		ws.Spans = append(ws.Spans, r.kept...)
	}
	ws.Workflows = agg.ops
	for n, st := range agg.byName {
		total := 0.0
		for _, d := range st.durMs {
			total += d
		}
		ws.Names = append(ws.Names, spanName{Name: n, Count: len(st.durMs), P50Ms: median(st.durMs), TotalMs: total, SelfMs: st.selfMs})
	}
	sort.Slice(ws.Names, func(i, j int) bool { return ws.Names[i].Name < ws.Names[j].Name })
	return ws
}

// printSpans renders a span file's per-name table — the per-layer view the
// README quotes is regenerated from it.
func printSpans(w io.Writer, sf *spanFile) {
	for _, ws := range sf.Workloads {
		fmt.Fprintf(w, "\n%s  %d traced workflows, %d spans kept\n", ws.Name, ws.Workflows, len(ws.Spans))
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "  span\tcount\tper workflow\tp50 ms\ttotal ms\tself ms")
		for _, n := range ws.Names {
			fmt.Fprintf(tw, "  %s\t%d\t%.2f\t%.4f\t%.1f\t%.1f\n", n.Name, n.Count, float64(n.Count)/float64(max(1, ws.Workflows)), n.P50Ms, n.TotalMs, n.SelfMs)
		}
		tw.Flush()
	}
}
