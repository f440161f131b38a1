// Command openwfbench is the repository's benchmark: four wall-clock
// workloads over the public API of the open-workflow middleware, eleven
// end-to-end metrics — five of them steady enough on a shared machine for
// the driver to gate on — a per-layer view taken from outside (probes,
// counters and a traced run), and the tooling to compare two runs against
// the metrics' bounds. See README.md beside this file.
//
//	openwfbench -seed N                          every workload, interleaved; table + optional -o/-trace-out
//	openwfbench -workload W -seed N -seconds S -trace 0|1
//	                                             one workload; last line is the driver's JSON object
//	openwfbench -compare old.json new.json       delta table against the bounds; exit 1 on a regression
//	openwfbench -selfcheck                       run twice, compare
//	openwfbench -spans trace.json                per-span table of a -trace-out file
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the driver's JSON line last (default: all, interleaved)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload, split over the repetitions")
	flag.IntVar(&o.trace, "trace", 0, "with -workload, what the last line carries: 0 the gated end-to-end metrics, 1 the other end-to-end metrics and the per-layer ones (probes + traced repetitions)")
	flag.StringVar(&o.out, "o", "", "write the report as JSON to this file (- for standard output)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced repetitions' spans as JSON to this file")
	compare := flag.Bool("compare", false, "compare two report files given as arguments: old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two runs against the bounds")
	spans := flag.String("spans", "", "print the per-span table of a -trace-out file and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o, *compare, *selfcheck, *spans, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "openwfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, compare, selfcheck bool, spans string, args []string) error {
	switch {
	case spans != "":
		data, err := os.ReadFile(spans)
		if err != nil {
			return err
		}
		var sf spanFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return fmt.Errorf("%s: %w", spans, err)
		}
		printSpans(os.Stdout, &sf)
		return nil
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report files, got %d arguments", len(args))
		}
		return compareFiles(args[0], args[1])
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if selfcheck {
		return selfCheck(ctx, o)
	}
	if o.workload != "" {
		return runOne(ctx, o)
	}
	_, err := runSuite(ctx, o)
	return err
}

// clientsK is the closed-loop client bound: at most 2 × nproc requests are
// in flight from the one process that generates all load.
func clientsK() int { return 2 * runtime.NumCPU() }

// needTCP raises the descriptor limit when a selected workload dials TCP.
func needTCP(ws []*workload) error {
	for _, w := range ws {
		if w.name == "tcp_wide" {
			return raiseFDLimit()
		}
	}
	return nil
}

// runOne is the driver's entry: one workload, its footprint and then
// -seconds split over the repetitions. With -trace 0 every repetition is
// untraced; with -trace 1 the probes run first and repetitions alternate
// untraced and traced. The last line carries the metrics BENCHMARK.json
// declares for that mode.
func runOne(ctx context.Context, o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := needTCP([]*workload{w}); err != nil {
		return err
	}
	k := clientsK()
	layers := o.trace == 1
	var rs runs
	var err error
	if rs.liveHeapMB, err = footprint(ctx, w, o.seed, k); err != nil {
		return err
	}
	var probes map[string]float64
	if layers {
		if probes, err = runProbes(ctx, o.seed); err != nil {
			return err
		}
	}
	rp := planReps(time.Duration(o.seconds) * time.Second)
	for i := 0; i < reps; i++ {
		var tr *tracer
		if layers && i%2 == 1 {
			tr = newTracer()
		}
		res, err := runRep(ctx, w, o.seed, k, rp, tr)
		if err != nil {
			return err
		}
		if tr != nil {
			rs.traced = append(rs.traced, res)
		} else {
			rs.untraced = append(rs.untraced, res)
		}
	}
	rep := &report{Schema: reportSchema, Env: stampEnv(o.seed, k, o.seconds)}
	rep.Workloads = []workloadReport{summarizeWorkload(w, k, rs, probes, layers)}
	if err := writeOutputs(o, rep, []workloadSpan{newWorkloadSpan(w.name, rs.traced)}); err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	line, err := json.Marshal(newDriverLine(&rep.Workloads[0], layers))
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// tracedPlan is the suite's one traced repetition per workload.
var tracedPlan = repPlan{warm: warmUp, slice: 4 * time.Second}

// runSuite measures every workload: first each one's footprint, while the
// process is still clean; then the repetitions, interleaved round-robin
// across workloads, so a slow minute on a shared machine costs each
// workload one slice instead of costing one workload everything; then the
// probes and one traced repetition per workload for the per-layer view.
func runSuite(ctx context.Context, o options) (*report, error) {
	if err := needTCP(workloads); err != nil {
		return nil, err
	}
	k := clientsK()
	measured := make(map[string]*runs)
	for _, w := range workloads {
		mb, err := footprint(ctx, w, o.seed, k)
		if err != nil {
			return nil, err
		}
		measured[w.name] = &runs{liveHeapMB: mb}
	}
	rp := planReps(time.Duration(o.seconds) * time.Second)
	for i := 0; i < reps; i++ {
		for _, w := range workloads {
			res, err := runRep(ctx, w, o.seed, k, rp, nil)
			if err != nil {
				return nil, err
			}
			measured[w.name].untraced = append(measured[w.name].untraced, res)
			fmt.Fprintf(os.Stderr, "%s rep %d/%d: %d ops in %.2fs\n", w.name, i+1, reps, len(res.ops), res.wallS)
		}
	}
	probes, err := runProbes(ctx, o.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{Schema: reportSchema, Env: stampEnv(o.seed, k, o.seconds)}
	var spans []workloadSpan
	for _, w := range workloads {
		res, err := runRep(ctx, w, o.seed, k, tracedPlan, newTracer())
		if err != nil {
			return nil, err
		}
		rs := measured[w.name]
		rs.traced = []*repResult{res}
		rep.Workloads = append(rep.Workloads, summarizeWorkload(w, k, *rs, probes, true))
		spans = append(spans, newWorkloadSpan(w.name, rs.traced))
	}
	if err := writeOutputs(o, rep, spans); err != nil {
		return nil, err
	}
	if o.out != "-" {
		printReport(os.Stdout, rep)
	}
	for _, wr := range rep.Workloads {
		if !wr.Correct {
			return rep, fmt.Errorf("%s: %d of %d operations failed or an invariant was violated", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	return rep, nil
}

func writeOutputs(o options, rep *report, spans []workloadSpan) error {
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		return writeJSON(o.traceOut, &spanFile{Schema: spanSchema, Env: rep.Env, Workloads: spans})
	}
	return nil
}
