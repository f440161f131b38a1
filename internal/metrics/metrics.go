// Package metrics is the daemon's instrument registry: named counters,
// gauges, and latency histograms with a Prometheus text exposition. It
// exists so the serving subsystem (internal/daemon) can report the
// paper-relevant operational signals — accepted/rejected/completed
// Initiates, backlog depth, tail latency, repair counts, transport frame
// accounting — without pulling in an external metrics dependency: the
// repo's rule is stdlib only, and the scrape format is simple enough to
// emit directly.
//
// Concurrency: every instrument is safe for concurrent use. Counters are
// single atomics; histograms take a short mutex per observation. A gauge
// is a GaugeFunc over state that has its own accounting; the callbacks run
// at scrape time on the scraper's goroutine and must be fast and
// non-blocking.
package metrics

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/stats"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters never decrease).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histWindow bounds how many recent observations a histogram keeps for
// quantile estimation. Count and Sum stay exact over the histogram's
// lifetime; quantiles are computed over a sliding window of the last
// histWindow observations, so a daemon serving indefinitely holds
// constant memory per histogram and its tails track current behavior
// rather than averaging over hours of history.
const histWindow = 4096

// Histogram accumulates observations and reports summary quantiles
// (p50/p99/p999) in the Prometheus summary exposition.
type Histogram struct {
	mu    sync.Mutex
	ring  []float64
	next  int
	count int64
	sum   float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if len(h.ring) < histWindow {
		h.ring = append(h.ring, v)
	} else {
		h.ring[h.next] = v
		h.next = (h.next + 1) % histWindow
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds, the Prometheus
// convention for latency summaries.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the lifetime observation count.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantiles returns the requested quantiles (0 ≤ q ≤ 1) over the sliding
// window, in argument order.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	h.mu.Lock()
	var s stats.Sample
	for _, v := range h.ring {
		s.Add(v)
	}
	h.mu.Unlock()
	ps := make([]float64, len(qs))
	for i, q := range qs {
		ps[i] = q * 100
	}
	return s.Percentiles(ps...)
}

// snapshot returns the exposition state under one lock acquisition.
func (h *Histogram) snapshot() (count int64, sum float64, window []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, append([]float64(nil), h.ring...)
}

// kind tags an instrument family for the # TYPE line.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindSummary
)

// instrument is one registered metric family.
type instrument struct {
	name string
	help string
	kind kind

	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds named instruments and renders them in the Prometheus
// text format. Instruments render in registration order; names must be
// unique (a duplicate registration panics — it is a programming error,
// caught at daemon construction, never at runtime).
type Registry struct {
	mu    sync.Mutex
	names map[string]struct{}
	insts []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(inst *instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[inst.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate instrument %q", inst.name))
	}
	r.names[inst.name] = struct{}{}
	r.insts = append(r.insts, inst)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&instrument{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the bridge to state that already has its own accounting
// (transport counters, backlog depth, engine session stats).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&instrument{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// Histogram registers and returns a new latency histogram, exposed as a
// Prometheus summary with p50/p99/p999 quantiles.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&instrument{name: name, help: help, kind: kindSummary, hist: h})
	return h
}

// summaryQuantiles are the fixed quantiles every histogram exposes — the
// tail set the ISSUE's acceptance criteria name.
var summaryQuantiles = []float64{0.5, 0.99, 0.999}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (text/plain; version=0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	insts := append([]*instrument(nil), r.insts...)
	r.mu.Unlock()
	for _, inst := range insts {
		if inst.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", inst.name, inst.help); err != nil {
				return err
			}
		}
		switch inst.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n",
				inst.name, inst.name, inst.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n",
				inst.name, inst.name, inst.gaugeFn()); err != nil {
				return err
			}
		case kindSummary:
			if err := writeSummary(w, inst.name, inst.hist); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSummary(w io.Writer, name string, h *Histogram) error {
	count, sum, window := h.snapshot()
	if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", name); err != nil {
		return err
	}
	var s stats.Sample
	for _, x := range window {
		s.Add(x)
	}
	ps := make([]float64, len(summaryQuantiles))
	for i, q := range summaryQuantiles {
		ps[i] = q * 100
	}
	vs := s.Percentiles(ps...)
	for i, q := range summaryQuantiles {
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %g\n", name, formatQuantile(q), vs[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, sum, name, count); err != nil {
		return err
	}
	return nil
}

// formatQuantile renders q without a trailing zero tail (0.5, 0.99,
// 0.999), matching the conventional Prometheus summary labels.
func formatQuantile(q float64) string { return fmt.Sprintf("%g", q) }
