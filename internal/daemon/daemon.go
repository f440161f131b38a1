// Package daemon turns the one-shot middleware into a long-lived
// workflow server: a host process that starts a community, accepts a
// continuous stream of problem specifications, and initiates each one
// through a bounded, admission-controlled backlog (internal/backlog)
// worked by a fixed pool of concurrent allocation sessions. It is the
// serving layer the ROADMAP's "daemon mode" item calls for — the
// coordination middleware of the paper becomes one block inside a system
// with explicit queueing, lifecycle, and resource management around it.
//
// Lifecycle: Start builds a community and owns it. Drain stops admission
// and finishes everything already accepted (the SIGTERM path); Close
// aborts in-flight work and tears down.
//
// Every server carries a metrics.Registry (exposed over HTTP by
// cmd/openwfd) with the serving signals the ISSUE names: accepted /
// rejected / completed / aborted Initiates, per-class backlog depth,
// p50/p99/p999 Initiate latency, repair and replan counts, the engine's
// sessions in flight, and the transport frame counters. Metric names are
// listed in DESIGN.md §11.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/backlog"
	"openwf/internal/clock"
	"openwf/internal/community"
	"openwf/internal/engine"
	"openwf/internal/metrics"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
)

// ErrDraining is returned by Do once Drain or Close has begun:
// the server no longer admits work, existing work is being finished (or
// aborted). Submitters should treat it as a permanent condition and fail
// over, unlike a *backlog.RejectedError which is transient backpressure.
var ErrDraining = errors.New("daemon: draining")

// DefaultBacklog is the per-class backlog capacity when Config.Backlog
// is zero: deep enough to absorb bursts several times the worker pool,
// shallow enough that queue wait — not memory — is the first
// overload signal.
const DefaultBacklog = 64

// Config tunes a Server.
type Config struct {
	// Workers bounds how many Initiates run concurrently. Zero means
	// engine.Workers, the bound every host's dispatcher serves inbound
	// workflows under, so the daemon never multiplexes more sessions than
	// its initiator host handles at once.
	Workers int
	// Backlog is the per-priority-class queue capacity (default
	// DefaultBacklog). A class at capacity rejects with
	// *backlog.RejectedError.
	Backlog int
	// Execute runs each allocated plan to completion (with Triggers as
	// the initial label injections) before reporting the request done.
	// Off, the daemon serves pure Initiates — the operation the paper's
	// evaluation times.
	Execute bool
	// Triggers are the initial label transfers injected when Execute is
	// set.
	Triggers map[model.LabelID][]byte
}

// Request is one unit of admission: a problem specification plus the
// priority class it queues under.
type Request struct {
	Spec  spec.Spec
	Class backlog.Class
}

// Result reports one served request. Latency is measured on the
// community clock (virtual under simulation) from admission to
// completion, so queue wait is included — the figure tail-latency
// reporting wants.
type Result struct {
	Plan   *engine.Plan
	Report *engine.Report
	// Err is the serving error. An executed workflow that did not complete
	// is one too, naming its task failures, and is counted as aborted.
	Err     error
	Class   backlog.Class
	Wait    time.Duration
	Latency time.Duration
}

// job is one queued request with its completion callback.
type job struct {
	req       Request
	submitted time.Time
	done      func(*Result)
}

// Server is a running workflow daemon.
type Server struct {
	comm      *community.Community
	initiator proto.Addr
	cfg       Config
	clk       clock.Clock
	reg       *metrics.Registry
	q         *backlog.Queue[*job]

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	draining bool

	// The admission counts, which the registry and Snapshot read.
	accepted, rejected, completed, aborted atomic.Int64
	hLatency, hWait                        *metrics.Histogram
}

// Start builds a community from opts and specs and serves it; Close tears
// the community down. opts.Engine reaches the hosts as the caller set it:
// the repair and replan counts are the initiator engine's own.
func Start(opts community.Options, initiator proto.Addr, cfg Config, specs ...community.HostSpec) (*Server, error) {
	comm, err := community.New(opts, specs...)
	if err != nil {
		return nil, err
	}
	h, ok := comm.Host(initiator)
	if !ok {
		_ = comm.Close()
		return nil, fmt.Errorf("daemon: no host %q in community", initiator)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = engine.Workers
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = DefaultBacklog
	}
	ctx, cancel := context.WithCancel(context.Background()) //openwf:allow-background lifecycle root for the worker pool, canceled by Close
	reg := metrics.NewRegistry()
	s := &Server{
		comm:      comm,
		initiator: initiator,
		cfg:       cfg,
		clk:       comm.Clock(),
		reg:       reg,
		q:         backlog.New[*job](cfg.Backlog),
		ctx:       ctx,
		cancel:    cancel,
	}
	reg.CounterFunc("openwf_initiates_accepted_total",
		"Requests admitted to the backlog.", s.accepted.Load)
	reg.CounterFunc("openwf_initiates_rejected_total",
		"Requests refused at admission (class at capacity or draining).", s.rejected.Load)
	reg.CounterFunc("openwf_initiates_completed_total",
		"Requests served to a successful result.", s.completed.Load)
	reg.CounterFunc("openwf_initiates_aborted_total",
		"Requests that ended in an error (allocation failure, abort, shutdown).", s.aborted.Load)
	reg.CounterFunc("openwf_repairs_total",
		"Mid-execution plan repairs completed on the initiator engine (Observer.Repaired).", h.Engine.Repairs)
	reg.CounterFunc("openwf_replans_total",
		"Failure-feedback reconstructions of allocation sessions and plan repairs on the initiator engine (Observer.Replanned).", h.Engine.Replans)
	s.hLatency = reg.Histogram("openwf_initiate_latency_seconds",
		"Admission-to-completion latency on the community clock.")
	s.hWait = reg.Histogram("openwf_backlog_wait_seconds",
		"Time spent queued before a worker picked the request up.")
	for _, class := range backlog.Classes() {
		class := class
		reg.GaugeFunc("openwf_backlog_depth_"+class.String(),
			"Queued requests in the "+class.String()+" class.",
			func() float64 { return float64(s.q.Depth(class)) })
	}
	reg.GaugeFunc("openwf_workers",
		"Concurrent Initiate workers serving the backlog.",
		func() float64 { return float64(cfg.Workers) })
	reg.GaugeFunc("openwf_sessions_active",
		"Allocation sessions currently in flight on the initiator engine.",
		func() float64 { return float64(h.Engine.InFlight()) })
	reg.GaugeFunc("openwf_holds",
		"Firm-bid reservations on the community's calendars.",
		func() float64 { return float64(comm.TotalHolds()) })
	reg.GaugeFunc("openwf_commitments",
		"Commitments on the community's calendars; ended workflows leave none.",
		func() float64 { return float64(comm.TotalCommitments()) })
	reg.GaugeFunc("openwf_exec_runs",
		"Execution runs the hosts track; ended workflows leave none.",
		func() float64 { return float64(comm.TotalRuns()) })
	reg.CounterFunc("openwf_transport_envelopes_total",
		"Logical envelopes accepted for transmission (community-wide).",
		func() int64 { return comm.TransportStats().Envelopes })
	reg.CounterFunc("openwf_transport_calls_total",
		"Request envelopes (each opens a Call round trip).",
		func() int64 { return comm.TransportStats().Calls })
	reg.CounterFunc("openwf_transport_frames_dropped_total",
		"Wire frames lost after framing (loss, crash, unreachable peer).",
		func() int64 { return comm.TransportStats().FramesDropped })
	reg.CounterFunc("openwf_discovery_hits_total",
		"Sweeps the hosts routed from what members had told them, asking nobody to describe itself.",
		func() int64 { return comm.DiscoveryStats().Hits })
	reg.CounterFunc("openwf_discovery_misses_total",
		"Sweeps that also asked unknown members to describe themselves.",
		func() int64 { return comm.DiscoveryStats().Misses })
	reg.CounterFunc("openwf_discovery_excluded_total",
		"Members skipped as presumed dead: their advertiser was silent for a full TTL.",
		func() int64 { return comm.DiscoveryStats().Excluded })

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Community returns the community the server serves.
func (s *Server) Community() *community.Community { return s.comm }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// submit offers a request for admission; done (optional) is invoked from
// a worker goroutine when the request finishes and must be fast and
// non-blocking. It never blocks: it returns nil (admitted),
// *backlog.RejectedError (class at capacity — transient backpressure),
// or ErrDraining (shutdown has begun — permanent).
func (s *Server) submit(req Request, done func(*Result)) error {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.rejected.Add(1)
		return ErrDraining
	}
	err := s.q.Submit(req.Class, &job{req: req, submitted: s.clk.Now(), done: done})
	switch {
	case err == nil:
		s.accepted.Add(1)
		return nil
	case errors.Is(err, backlog.ErrClosed):
		s.rejected.Add(1)
		return ErrDraining
	default:
		s.rejected.Add(1)
		return err
	}
}

// Do submits a request and waits for its result. The context bounds only
// the caller's wait: a request already admitted keeps running (and is
// counted) even if the caller gives up. The returned Result's Err field
// carries the serving error; Do's own error reports admission failure or
// a canceled wait.
func (s *Server) Do(ctx context.Context, req Request) (*Result, error) {
	ch := make(chan *Result, 1)
	if err := s.submit(req, func(r *Result) { ch <- r }); err != nil {
		return nil, err
	}
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// worker serves the backlog until it closes (drain) or the server
// context cancels (close).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, class, err := s.q.Next(s.ctx)
		if err != nil {
			return
		}
		s.serve(j, class)
	}
}

// serve runs one admitted request to completion.
func (s *Server) serve(j *job, class backlog.Class) {
	started := s.clk.Now()
	wait := started.Sub(j.submitted)
	s.hWait.ObserveDuration(wait)
	plan, err := s.comm.Initiate(s.ctx, s.initiator, j.req.Spec)
	var rep *engine.Report
	if err == nil && s.cfg.Execute {
		rep, err = s.comm.Execute(s.ctx, s.initiator, plan, s.cfg.Triggers)
		// A task that failed ends the run with a nil error and a report
		// that is not Completed: the workflow did not complete.
		if err == nil && !rep.Completed {
			err = fmt.Errorf("workflow did not complete: %s", strings.Join(rep.Failures, "; "))
		}
	}
	latency := s.clk.Now().Sub(j.submitted)
	s.hLatency.ObserveDuration(latency)
	if err == nil {
		s.completed.Add(1)
	} else {
		s.aborted.Add(1)
	}
	if j.done != nil {
		j.done(&Result{
			Plan: plan, Report: rep, Err: err,
			Class: class, Wait: wait, Latency: latency,
		})
	}
}

// Drain stops admission and waits for every admitted request to finish —
// the clean-shutdown path (SIGTERM in cmd/openwfd). The context bounds
// the wait; on expiry the backlog may still hold work (call Close to
// abort it). Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) beginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.q.Close()
	}
}

// Close shuts the server down immediately: admission stops, in-flight
// Initiates abort via context cancellation (counted as aborted), queued
// requests fail with context.Canceled, and the community closes. Safe
// after Drain, and idempotent.
func (s *Server) Close() error {
	s.beginDrain()
	s.cancel()
	s.wg.Wait()
	// Workers are gone; fail whatever was admitted but never served.
	for {
		// s.ctx is already canceled here, which is exactly right:
		// Next drains queued items before consulting the context, so
		// every admitted job is failed, and an (impossible) empty
		// unclosed queue returns ctx.Err instead of blocking Close.
		j, class, err := s.q.Next(s.ctx)
		if err != nil {
			break
		}
		s.aborted.Add(1)
		if j.done != nil {
			j.done(&Result{Err: context.Canceled, Class: class})
		}
	}
	return s.comm.Close()
}

// Snapshot is a point-in-time read of the serving counters, for harness
// assertions without parsing the exposition text.
type Snapshot struct {
	Accepted  int64
	Rejected  int64
	Completed int64
	Aborted   int64
	Backlog   int
	// LatencyP50/P99/P999 are seconds on the community clock, over the
	// histogram's sliding window.
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64
	// What the hosts hold right now; ended workflows must leave none.
	Holds, Commitments, Runs int
}

// Snapshot returns the current serving counters.
func (s *Server) Snapshot() Snapshot {
	qs := s.hLatency.Quantiles(0.5, 0.99, 0.999)
	return Snapshot{
		Accepted:    s.accepted.Load(),
		Rejected:    s.rejected.Load(),
		Completed:   s.completed.Load(),
		Aborted:     s.aborted.Load(),
		Backlog:     s.q.TotalDepth(),
		LatencyP50:  qs[0],
		LatencyP99:  qs[1],
		LatencyP999: qs[2],
		Holds:       s.comm.TotalHolds(),
		Commitments: s.comm.TotalCommitments(),
		Runs:        s.comm.TotalRuns(),
	}
}
