package metrics

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGauge: both read their owner's state at scrape time, not at
// registration.
func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	var reqs int64
	depth := 7.0
	r.CounterFunc("reqs_total", "requests", func() int64 { return reqs })
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	reqs += 5
	depth -= 2
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reqs_total 5\n", "depth 5\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q: not read at scrape time:\n%s", want, sb.String())
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency")
	for i := 1; i <= 100; i++ {
		h.observe(float64(i))
	}
	qs := h.Quantiles(0.5, 0.99)
	if math.Abs(qs[0]-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", qs[0])
	}
	if math.Abs(qs[1]-99.01) > 1e-9 {
		t.Errorf("p99 = %v, want 99.01", qs[1])
	}
	if h.count != 100 {
		t.Errorf("count = %d", h.count)
	}
	h.ObserveDuration(1500 * time.Millisecond)
	if h.count != 101 {
		t.Errorf("count = %d after ObserveDuration", h.count)
	}
}

// TestHistogramWindowBounded: lifetime count/sum stay exact while the
// quantile window holds only the most recent histWindow observations —
// the property that keeps a long-lived daemon's memory constant.
func TestHistogramWindowBounded(t *testing.T) {
	var h Histogram
	const n = histWindow * 3
	for i := 0; i < n; i++ {
		h.observe(1) // old regime
	}
	for i := 0; i < histWindow; i++ {
		h.observe(1000) // new regime fills the whole window
	}
	if h.count != n+histWindow {
		t.Errorf("count = %d", h.count)
	}
	if got := h.Quantiles(0.5)[0]; got != 1000 {
		t.Errorf("windowed p50 = %v, want 1000 (old regime must have aged out)", got)
	}
	if len(h.ring) != histWindow {
		t.Errorf("ring grew to %d", len(h.ring))
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("wf_initiates_accepted_total", "accepted", func() int64 { return 3 })
	r.GaugeFunc("wf_backlog_depth", "depth", func() float64 { return 2 })
	r.GaugeFunc("wf_transport_frames", "frames", func() float64 { return 42 })
	h := r.Histogram("wf_initiate_seconds", "latency")
	h.observe(0.25)
	h.observe(0.75)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP wf_initiates_accepted_total accepted",
		"# TYPE wf_initiates_accepted_total counter",
		"wf_initiates_accepted_total 3",
		"# TYPE wf_backlog_depth gauge",
		"wf_backlog_depth 2",
		"wf_transport_frames 42",
		"# TYPE wf_initiate_seconds summary",
		`wf_initiate_seconds{quantile="0.5"} 0.5`,
		`wf_initiate_seconds{quantile="0.99"}`,
		`wf_initiate_seconds{quantile="0.999"}`,
		"wf_initiate_seconds_sum 1",
		"wf_initiate_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x", "", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

// TestConcurrentInstruments: observations race scrapes, and the count
// stays exact.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.observe(float64(j))
				if j%100 == 0 {
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	if h.count != 8000 {
		t.Errorf("histogram count = %d", h.count)
	}
}
