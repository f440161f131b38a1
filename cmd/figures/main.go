// Command figures regenerates the paper's result figures (§5): for every
// curve it builds the community, draws guaranteed-satisfiable
// specifications per path length, and reports the average time from
// specification to full allocation.
//
//	go run ./cmd/figures -fig all -runs 100
//	go run ./cmd/figures -fig 4 -runs 1000            # paper-scale averaging
//	go run ./cmd/figures -fig 6 -transport tcp        # empirical over real sockets
//	go run ./cmd/figures -fig 5 -csv out/             # CSV per figure
//
// Absolute times reflect today's hardware and Go runtime; the reproduced
// claims are the curve shapes. Every measurement is a cold one: the
// initiator forgets what the community told it between runs (MEASUREMENTS.md §20).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"openwf/internal/community"
	"openwf/internal/evalgen"
	"openwf/internal/stats"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 4, 5, 6, or all")
		runs      = flag.Int("runs", 100, "measurements per path length (paper: 1000)")
		seed      = flag.Int64("seed", 1, "random seed")
		transport = flag.String("transport", "inmem", "substrate for figure 6: inmem (802.11g model) or tcp")
		csvDir    = flag.String("csv", "", "directory to also write CSV files into")
	)
	flag.Parse()

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(figure %s regenerated in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	cfg := sweepConfig{runs: *runs, seed: *seed, csvDir: *csvDir}
	run("4", func() error { return figure4(cfg) })
	run("5", func() error { return figure5(cfg) })
	run("6", func() error { return figure6(cfg, *transport) })
}

type sweepConfig struct {
	runs   int
	seed   int64
	csvDir string
}

func lengths(from, to, step int) []int {
	var out []int
	for l := from; l <= to; l += step {
		out = append(out, l)
	}
	return out
}

// figure4 — "Simulation of 100 task nodes partitioned across different
// numbers of hosts": hosts 2–15, path lengths 2–22.
func figure4(cfg sweepConfig) error {
	figure := stats.NewFigure("Figure 4 — simulation, 100 task nodes, 2..15 hosts")
	for _, hosts := range []int{15, 10, 5, 4, 3, 2} {
		name := fmt.Sprintf("%d host", hosts)
		res, err := evalgen.RunExperiment(context.Background(), evalgen.ExperimentConfig{
			Tasks:       100,
			Hosts:       hosts,
			PathLengths: lengths(2, 22, 2),
			Runs:        cfg.runs,
			Community:   community.Options{Seed: cfg.seed},
		}, name)
		if err != nil {
			return err
		}
		figure.Series = append(figure.Series, res.Series)
		fmt.Fprintf(os.Stderr, "  %s: max path length %d, %d messages\n",
			name, res.MaxPathLength, res.Messages)
	}
	return emit(figure, cfg.csvDir, "figure4.csv")
}

// figure5 — "Simulation of different numbers of task nodes partitioned
// across 2 hosts": 25–500 tasks, path lengths 2–14.
func figure5(cfg sweepConfig) error {
	figure := stats.NewFigure("Figure 5 — simulation, 2 hosts, 25..500 task nodes")
	for _, tasks := range []int{500, 250, 100, 50, 25} {
		name := fmt.Sprintf("%d task", tasks)
		res, err := evalgen.RunExperiment(context.Background(), evalgen.ExperimentConfig{
			Tasks:       tasks,
			Hosts:       2,
			PathLengths: lengths(2, 14, 2),
			Runs:        cfg.runs,
			Community:   community.Options{Seed: cfg.seed},
		}, name)
		if err != nil {
			return err
		}
		figure.Series = append(figure.Series, res.Series)
		fmt.Fprintf(os.Stderr, "  %s: max path length %d, %d messages\n",
			name, res.MaxPathLength, res.Messages)
	}
	return emit(figure, cfg.csvDir, "figure5.csv")
}

// figure6 — "Empirical performance of ad hoc wireless networking for
// different numbers of task nodes partitioned across 4 hosts": 25–100
// tasks, path lengths 2–20, over the 802.11g latency model (or real TCP).
func figure6(cfg sweepConfig, transport string) error {
	figure := stats.NewFigure("Figure 6 — empirical configuration, 4 hosts (802.11g ad hoc)")
	for _, tasks := range []int{100, 50, 25} {
		name := fmt.Sprintf("%d task", tasks)
		expCfg := evalgen.ExperimentConfig{
			Tasks:       tasks,
			Hosts:       4,
			PathLengths: lengths(2, 20, 2),
			Runs:        cfg.runs,
			Community:   community.Options{Seed: cfg.seed},
		}
		switch transport {
		case "inmem":
			expCfg.Community.LinkModel = evalgen.Wireless80211g()
		case "tcp":
			expCfg.Community.Transport = community.TCP
		default:
			return fmt.Errorf("unknown transport %q", transport)
		}
		res, err := evalgen.RunExperiment(context.Background(), expCfg, name)
		if err != nil {
			return err
		}
		figure.Series = append(figure.Series, res.Series)
		fmt.Fprintf(os.Stderr, "  %s: max path length %d (the paper's per-size cutoffs)\n",
			name, res.MaxPathLength)
	}
	return emit(figure, cfg.csvDir, "figure6.csv")
}

func emit(figure *stats.Figure, csvDir, filename string) error {
	if err := figure.WriteTable(os.Stdout); err != nil {
		return err
	}
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, filename))
	if err != nil {
		return err
	}
	defer f.Close()
	return figure.WriteCSV(f)
}
