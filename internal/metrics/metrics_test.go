package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	depth := 7.0
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	c.Inc()
	c.Add(4)
	depth -= 2
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "depth 5\n") {
		t.Errorf("gauge not read at scrape time:\n%s", sb.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	qs := h.Quantiles(0.5, 0.99)
	if math.Abs(qs[0]-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", qs[0])
	}
	if math.Abs(qs[1]-99.01) > 1e-9 {
		t.Errorf("p99 = %v, want 99.01", qs[1])
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	h.ObserveDuration(1500 * time.Millisecond)
	if h.Count() != 101 {
		t.Errorf("count = %d after ObserveDuration", h.Count())
	}
}

// TestHistogramWindowBounded: lifetime count/sum stay exact while the
// quantile window holds only the most recent histWindow observations —
// the property that keeps a long-lived daemon's memory constant.
func TestHistogramWindowBounded(t *testing.T) {
	var h Histogram
	const n = histWindow * 3
	for i := 0; i < n; i++ {
		h.Observe(1) // old regime
	}
	for i := 0; i < histWindow; i++ {
		h.Observe(1000) // new regime fills the whole window
	}
	if h.Count() != n+histWindow {
		t.Errorf("count = %d", h.Count())
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
	c := r.Counter("wf_initiates_accepted_total", "accepted")
	r.GaugeFunc("wf_backlog_depth", "depth", func() float64 { return 2 })
	r.GaugeFunc("wf_transport_frames", "frames", func() float64 { return 42 })
	h := r.Histogram("wf_initiate_seconds", "latency")
	c.Add(3)
	h.Observe(0.25)
	h.Observe(0.75)
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
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d", h.Count())
	}
}
