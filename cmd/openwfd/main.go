// Command openwfd runs a long-lived workflow daemon: it loads an XML
// deployment configuration (the same schema cmd/openwf uses), starts the
// community, and serves problem specifications over HTTP through a
// bounded, admission-controlled backlog until SIGINT/SIGTERM, then
// drains and exits.
//
//	go run ./cmd/openwfd -config deploy.xml -initiator manager -listen :8080
//
// Endpoints:
//
//	POST /submit    {"triggers": ["a"], "goals": ["g"], "class": "high"}
//	                → 200 with the allocated plan summary,
//	                  429 when the class backlog is at capacity,
//	                  503 once draining has begun
//	GET  /metrics   Prometheus text exposition (counters, gauges,
//	                latency summaries — see DESIGN.md §11)
//	GET  /healthz   200 while serving, 503 while draining
//	GET  /statusz   JSON serving snapshot (accepted/rejected/completed/
//	                aborted, backlog depth, latency quantiles, and the
//	                holds, commitments and runs the hosts hold now)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"openwf/internal/backlog"
	"openwf/internal/community"
	"openwf/internal/daemon"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/xmlconfig"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "openwfd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "XML deployment configuration (required)")
		initiator  = flag.String("initiator", "", "host that initiates workflows (required)")
		listen     = flag.String("listen", ":8080", "HTTP listen address")
		workers    = flag.Int("workers", 0, fmt.Sprintf("concurrent Initiates (0 = %d, how many workflows every host serves at once)", engine.Workers))
		backlogCap = flag.Int("backlog", 0, "per-class backlog capacity (0 = default)")
		execute    = flag.Bool("execute", false, "execute each allocated workflow, not just plan it")
		transport  = flag.String("transport", "inmem", "substrate: inmem or tcp")
		startDelay = flag.Duration("startdelay", time.Second, "lead time before the first execution window")
		taskWindow = flag.Duration("window", time.Second, "execution window length per task")
		drainWait  = flag.Duration("drain", time.Minute, "how long shutdown waits for admitted work")
	)
	flag.Parse()
	if *configPath == "" || *initiator == "" {
		flag.Usage()
		return fmt.Errorf("-config and -initiator are required")
	}

	dep, err := xmlconfig.LoadFile(*configPath)
	if err != nil {
		return err
	}

	engCfg := engine.DefaultConfig()
	engCfg.StartDelay = *startDelay
	engCfg.TaskWindow = *taskWindow
	opts := community.Options{Engine: &engCfg}
	switch *transport {
	case "inmem":
		opts.Transport = community.InMem
	case "tcp":
		opts.Transport = community.TCP
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}

	cfg := daemon.Config{Workers: *workers, Backlog: *backlogCap, Execute: *execute}
	if *execute {
		// The daemon cannot know which labels a future request will
		// trigger with, so pre-build payloads for every label any
		// configured problem triggers (the openwf convention: triggers
		// hold by assumption).
		cfg.Triggers = make(map[model.LabelID][]byte)
		for _, p := range dep.Problems {
			for _, l := range p.Spec.Triggers {
				cfg.Triggers[l] = []byte("<" + string(l) + ">")
			}
		}
	}
	srv, err := daemon.Start(opts, proto.Addr(*initiator), cfg, dep.Hosts...)
	if err != nil {
		return err
	}

	var draining atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(srv, dep, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = srv.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(srv.Snapshot())
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		_ = srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	fmt.Printf("openwfd: %d hosts over %s, serving on %s (initiator %s)\n",
		len(dep.Hosts), *transport, ln.Addr(), *initiator)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Clean shutdown: stop admitting, finish what was admitted,
		// then tear everything down.
		fmt.Fprintln(os.Stderr, "openwfd: signal received, draining...")
		draining.Store(true)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err = srv.Drain(drainCtx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "openwfd: drain incomplete (%v), aborting remainder\n", err)
		}
	case err := <-httpErr:
		_ = srv.Close()
		return fmt.Errorf("http: %w", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = httpSrv.Shutdown(shutCtx)
	cancel()
	if err := srv.Close(); err != nil {
		return err
	}
	snap := srv.Snapshot()
	fmt.Printf("openwfd: served %d (rejected %d, aborted %d), p50 %.3fs p99 %.3fs\n",
		snap.Completed, snap.Rejected, snap.Aborted, snap.LatencyP50, snap.LatencyP99)
	return nil
}

// submitRequest is the POST /submit body. Either name a configured
// <problem>, or give triggers and goals directly.
type submitRequest struct {
	Problem  string   `json:"problem,omitempty"`
	Triggers []string `json:"triggers,omitempty"`
	Goals    []string `json:"goals,omitempty"`
	Class    string   `json:"class,omitempty"` // "low", "normal" (default), "high"
}

type submitResponse struct {
	Tasks       int               `json:"tasks"`
	Allocations map[string]string `json:"allocations"`
	Replans     int               `json:"replans"`
	Executed    bool              `json:"executed,omitempty"`
	WaitSec     float64           `json:"wait_sec"`
	LatencySec  float64           `json:"latency_sec"`
	Class       string            `json:"class"`
}

func handleSubmit(srv *daemon.Server, dep *xmlconfig.Deployment, w http.ResponseWriter, r *http.Request) {
	var body submitRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s, err := resolveSpec(dep, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	class, err := parseClass(body.Class)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	res, err := srv.Do(r.Context(), daemon.Request{Spec: s, Class: class})
	var rej *backlog.RejectedError
	switch {
	case errors.As(err, &rej):
		// Typed backpressure: the client should retry with backoff.
		w.Header().Set("Retry-After", "1")
		http.Error(w, rej.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, daemon.ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil: // canceled wait
		http.Error(w, err.Error(), http.StatusRequestTimeout)
		return
	case res.Err != nil:
		http.Error(w, "serving: "+res.Err.Error(), http.StatusUnprocessableEntity)
		return
	}

	resp := submitResponse{
		Tasks:       res.Plan.Workflow.NumTasks(),
		Allocations: make(map[string]string, len(res.Plan.Allocations)),
		Replans:     res.Plan.Replans,
		Executed:    res.Report != nil && res.Report.Completed,
		WaitSec:     res.Wait.Seconds(),
		LatencySec:  res.Latency.Seconds(),
		Class:       res.Class.String(),
	}
	for task, host := range res.Plan.Allocations {
		resp.Allocations[string(task)] = string(host)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func resolveSpec(dep *xmlconfig.Deployment, body submitRequest) (spec.Spec, error) {
	if body.Problem != "" {
		for _, p := range dep.Problems {
			if p.Name == body.Problem {
				return p.Spec, nil
			}
		}
		return spec.Spec{}, fmt.Errorf("no problem %q in configuration", body.Problem)
	}
	if len(body.Triggers) == 0 || len(body.Goals) == 0 {
		return spec.Spec{}, fmt.Errorf("need problem, or triggers and goals")
	}
	return spec.New(toLabels(body.Triggers), toLabels(body.Goals))
}

func toLabels(ss []string) []model.LabelID {
	out := make([]model.LabelID, len(ss))
	for i, s := range ss {
		out[i] = model.LabelID(s)
	}
	return out
}

func parseClass(s string) (backlog.Class, error) {
	switch s {
	case "", "normal":
		return backlog.Normal, nil
	case "low":
		return backlog.Low, nil
	case "high":
		return backlog.High, nil
	}
	return 0, fmt.Errorf("unknown class %q (want low, normal, or high)", s)
}
