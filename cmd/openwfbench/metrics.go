package main

import "sort"

// metricDecl declares one metric the benchmark emits: its name, unit and
// which direction is better. The tables below are the emitting side of the
// contract; BENCHMARK.json is the declaring side, and TestMetricsMatch
// checks the two against each other in both directions.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// e2eDecl declares one end-to-end metric. Bound is the share of the old
// median by which it may worsen before -compare calls it a regression.
//
// Gated metrics are the ones BENCHMARK.json lists under end_to_end, with
// this bound: the driver refuses the benchmark unless ten runs of every
// workload agree on each of them to within its bound (it asks for a third
// of it), and no bound may exceed 25 %. On a shared machine only metrics
// that do not follow the machine's speed can promise that; every timing of
// a CPU-bound workload spread 5–35 % between sets of ten runs here. Those
// keep the bounds the issue proposed, are compared by -compare like the
// rest — a pair whose own spread exceeds the bound reads unresolved — and
// are declared in BENCHMARK.json under per_layer, the section without
// bounds, so the driver sees them with -trace 1.
type e2eDecl struct {
	metricDecl
	Bound float64
	Gated bool
}

// endToEnd lists the metrics a user of the system sees, measured on the
// untraced repetitions. execute_* apply to wireless_execute only.
var endToEnd = []e2eDecl{
	{metricDecl{"initiate_p50_ms", "ms", lower}, 0.10, false},
	{metricDecl{"initiate_tail_ms", "ms", lower}, 0.15, false},
	{metricDecl{"initiates_per_s", "1/s", higher}, 0.10, false},
	{metricDecl{"execute_p50_ms", "ms", lower}, 0.05, false},
	{metricDecl{"execute_tail_ms", "ms", lower}, 0.10, false},
	{metricDecl{"round_trips_per_initiate", "count", lower}, 0.02, true},
	{metricDecl{"allocs_per_initiate", "count", lower}, 0.08, true},
	{metricDecl{"alloc_kb_per_initiate", "KiB", lower}, 0.08, true},
	{metricDecl{"cpu_ms_per_initiate", "ms", lower}, 0.10, false},
	{metricDecl{"live_heap_mb", "MiB", lower}, 0.15, true},
	{metricDecl{"startup_ms", "ms", lower}, 0.25, false},
	{metricDecl{"setup_s", "s", lower}, 0.25, true},
}

// e2e returns the declaration of the named end-to-end metric.
func e2e(name string) (e2eDecl, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return e2eDecl{}, false
}

// rtKinds are the request kinds of an Initiate's round trips, in protocol
// order; per-kind metrics are emitted for each.
var rtKinds = []string{"fragment-query", "feasibility-query", "call-for-bids-batch", "award"}

// protoKinds are the envelope shapes the proto probe encodes and decodes.
var protoKinds = []string{"fragment-reply", "call-for-bids-batch", "bid-batch", "award", "label-transfer-4k"}

// perLayer lists the single-layer metrics of a traced run, layer by layer
// (layer = module name). They carry no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	ds := []metricDecl{
		{"core.construct_us", "us", lower},
		{"core.construct_allocs", "count", lower},
		{"core.explored_nodes", "count", lower},
		{"core.collection_rounds", "count", lower},
		{"engine.construct_phase_ms", "ms", lower},
		{"engine.allocate_phase_ms", "ms", lower},
		{"engine.self_ms", "ms", lower},
	}
	for _, k := range rtKinds {
		ds = append(ds, metricDecl{"engine.rt_count." + k, "count", lower})
	}
	for _, k := range rtKinds {
		ds = append(ds, metricDecl{"engine.rt_ms." + k, "ms", lower})
	}
	ds = append(ds,
		metricDecl{"engine.cfb_sweeps_per_initiate", "count", lower},
		metricDecl{"engine.replans_per_initiate", "count", lower},
	)
	for _, k := range rtKinds {
		ds = append(ds, metricDecl{"host.serve_us." + k, "us", lower})
	}
	ds = append(ds,
		metricDecl{"host.call_rtt_us", "us", lower},
		metricDecl{"host.active_sessions_peak", "count", lower},
		metricDecl{"auction.bid_batch_us", "us", lower},
		metricDecl{"auction.award_us", "us", lower},
		metricDecl{"auction.decide_us", "us", lower},
		metricDecl{"auction.cfb_per_award", "count", lower},
		metricDecl{"schedule.hold_commit_remove_ns", "ns", lower},
		metricDecl{"schedule.hold_commit_remove_par_ns", "ns", lower},
		metricDecl{"schedule.hold_busy_share", "share", lower},
		metricDecl{"schedule.can_commit_ns", "ns", lower},
		metricDecl{"schedule.release_us", "us", lower},
		metricDecl{"schedule.holds_left", "count", lower},
		metricDecl{"schedule.commitments_left", "count", lower},
		metricDecl{"schedule.commitments_left_after_execute", "count", lower},
	)
	for _, k := range protoKinds {
		ds = append(ds,
			metricDecl{"proto.roundtrip_ns." + k, "ns", lower},
			metricDecl{"proto.bytes." + k, "B", lower},
			metricDecl{"proto.allocs." + k, "count", lower},
		)
	}
	ds = append(ds,
		metricDecl{"discovery.select_ns", "ns", lower},
		metricDecl{"discovery.observe_ns", "ns", lower},
		metricDecl{"discovery.hits_per_initiate", "count", higher},
		metricDecl{"discovery.misses_per_initiate", "count", lower},
		metricDecl{"discovery.ads_per_s", "1/s", lower},
		metricDecl{"discovery.fanout", "count", lower},
		metricDecl{"transport.envelopes_per_initiate", "count", lower},
		metricDecl{"transport.frames_per_initiate", "count", lower},
		metricDecl{"transport.batch_share", "share", higher},
		metricDecl{"transport.frames_dropped", "count", lower},
		metricDecl{"transport.link_wait_ms", "ms", lower},
		metricDecl{"inmem.call_rtt_us", "us", lower},
		metricDecl{"inmem.send_par_ns", "ns", lower},
		metricDecl{"tcpnet.call_rtt_us", "us", lower},
		metricDecl{"tcpnet.send_par_ns", "ns", lower},
		metricDecl{"tcpnet.conns_open", "count", lower},
		metricDecl{"exec.distribute_ms", "ms", lower},
		metricDecl{"exec.dataflow_ms", "ms", lower},
		metricDecl{"exec.hop_ms", "ms", lower},
		metricDecl{"exec.start_lag_us", "us", lower},
		metricDecl{"exec.label_transfers_per_execute", "count", lower},
		metricDecl{"daemon.queue_wait_ms", "ms", lower},
		metricDecl{"daemon.dispatch_overhead_us", "us", lower},
		metricDecl{"daemon.rejected", "count", lower},
		metricDecl{"backlog.submit_next_ns", "ns", lower},
		metricDecl{"runtime.mutex_wait_ms_per_s", "ms/s", lower},
		metricDecl{"runtime.gc_pause_ms_per_s", "ms/s", lower},
		metricDecl{"runtime.cpu_util", "cpus", lower},
		metricDecl{"runtime.retained_kb_per_initiate", "KiB", lower},
		metricDecl{"runtime.peak_heap_mb", "MiB", lower},
		metricDecl{"runtime.goroutines_left", "count", lower},
		metricDecl{"trace.overhead_share", "share", lower},
	)
	return ds
}

// diffDecls reports the names present in a but not in b, and the names in
// both whose unit or direction differ.
func diffDecls(a, b []metricDecl) (missing, mismatched []string) {
	idx := make(map[string]metricDecl, len(b))
	for _, d := range b {
		idx[d.Name] = d
	}
	for _, d := range a {
		o, ok := idx[d.Name]
		switch {
		case !ok:
			missing = append(missing, d.Name)
		case o != d:
			mismatched = append(mismatched, d.Name)
		}
	}
	sort.Strings(missing)
	sort.Strings(mismatched)
	return missing, mismatched
}
