// Command openwf runs an open-workflow community from an XML deployment
// configuration (§4.1): it loads each device's task and service
// definitions, forms the community, poses a problem specification at the
// chosen initiator, prints the dynamically constructed workflow and its
// allocation, and optionally executes it.
//
//	go run ./cmd/openwf -config deploy.xml -initiator manager -problem meals
//	go run ./cmd/openwf -config deploy.xml -initiator manager \
//	    -triggers "breakfast ingredients,lunch ingredients" \
//	    -goals "breakfast served,lunch served" -execute
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"openwf/internal/community"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/trace"
	"openwf/internal/xmlconfig"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "openwf: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "XML deployment configuration (required)")
		initiator  = flag.String("initiator", "", "host that poses the problem (required)")
		problem    = flag.String("problem", "", "named <problem> from the configuration")
		triggers   = flag.String("triggers", "", "comma-separated triggering labels (alternative to -problem)")
		goals      = flag.String("goals", "", "comma-separated goal labels (alternative to -problem)")
		execute    = flag.Bool("execute", false, "execute the allocated workflow")
		timeout    = flag.Duration("timeout", 2*time.Minute, "execution timeout")
		transport  = flag.String("transport", "inmem", "substrate: inmem or tcp")
		startDelay = flag.Duration("startdelay", time.Second, "lead time before the first execution window")
		taskWindow = flag.Duration("window", time.Second, "execution window length per task")
		traceMsgs  = flag.Bool("trace", false, "stream every message to stderr")
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

	s, err := dep.Spec(*problem, splitList(*triggers), splitList(*goals))
	if err != nil {
		return err
	}

	engCfg := engine.DefaultConfig()
	engCfg.StartDelay = *startDelay
	engCfg.TaskWindow = *taskWindow
	opts := community.Options{Engine: &engCfg}
	if *traceMsgs {
		opts.Trace = trace.NewWriter(os.Stderr)
	}
	switch *transport {
	case "inmem":
		opts.Transport = community.InMem
	case "tcp":
		opts.Transport = community.TCP
	default:
		return fmt.Errorf("unknown transport %q", *transport)
	}

	com, err := community.New(opts, dep.Hosts...)
	if err != nil {
		return err
	}
	defer com.Close()

	fmt.Printf("community: %d hosts over %s\n", len(dep.Hosts), *transport)
	fmt.Printf("problem:   %s\n", s)

	start := time.Now()
	plan, err := com.Initiate(context.Background(), proto.Addr(*initiator), s)
	if err != nil {
		return fmt.Errorf("construction/allocation: %w", err)
	}
	fmt.Printf("constructed and allocated in %v (%d fragments collected, %d nodes explored, %d replans)\n\n",
		time.Since(start).Round(time.Microsecond),
		plan.Construction.FragmentsCollected, plan.Construction.Explored, plan.Replans)

	fmt.Println("workflow:")
	for _, id := range plan.Workflow.TopoOrder() {
		t, _ := plan.Workflow.Task(id)
		meta := plan.Metas[id]
		fmt.Printf("  %-30s → %-15s window %s..%s\n",
			t.ID, plan.Allocations[id],
			meta.Start.Format("15:04:05.000"), meta.End.Format("15:04:05.000"))
		fmt.Printf("      %v -> %v\n", t.Inputs, t.Outputs)
	}

	if !*execute {
		return nil
	}
	fmt.Println("\nexecuting...")
	// The triggering labels hold by assumption; without payloads for
	// them no task's inputs ever materialize and execution stalls.
	trigData := make(map[model.LabelID][]byte, len(s.Triggers))
	for _, l := range s.Triggers {
		trigData[l] = []byte("<" + string(l) + ">")
	}
	execCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	report, err := com.Execute(execCtx, proto.Addr(*initiator), plan, trigData)
	if err != nil && (report == nil || !errors.Is(err, context.DeadlineExceeded)) {
		return fmt.Errorf("execution: %w", err)
	}
	fmt.Printf("completed: %v (%d/%d tasks, %v)\n",
		report.Completed, report.TasksDone, plan.Workflow.NumTasks(),
		report.Elapsed.Round(time.Millisecond))
	for _, g := range plan.Workflow.Out() {
		fmt.Printf("  goal %-28q = %s\n", g, report.Goals[g])
	}
	if len(report.Failures) > 0 {
		return fmt.Errorf("task failures: %s", strings.Join(report.Failures, "; "))
	}
	if !report.Completed {
		return fmt.Errorf("workflow did not complete within %v", *timeout)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if trimmed := strings.TrimSpace(p); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}
