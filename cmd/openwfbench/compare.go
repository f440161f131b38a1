package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// verdict is the outcome of comparing one workload × metric pair.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regression verdict = "REGRESSION"
	unresolved verdict = "unresolved"
)

// spread is a metric's own min–max range as a share of its median.
func spread(m *metricValue) float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Max - m.Min) / m.Median
}

// judge compares one metric of two reports against its bound. The change
// is the new median's distance from the old one as a share of the old, in
// the direction that is worse. When either side's own spread is wider
// than the bound the two medians cannot be told apart by that bound: the
// pair is unresolved — not unchanged — unless every value of one side
// lies beyond every value of the other.
func judge(prev, next *metricValue, bound float64) (worse float64, v verdict) {
	if prev.Median == 0 {
		return 0, unresolved
	}
	worse = (next.Median - prev.Median) / prev.Median
	nextWorst, prevBest, nextBest, prevWorst := next.Max, prev.Min, next.Min, prev.Max
	if prev.Better == higher {
		worse = -worse
		nextWorst, prevBest, nextBest, prevWorst = -next.Min, -prev.Max, -next.Max, -prev.Min
	}
	if spread(prev) > bound || spread(next) > bound {
		switch {
		case worse > bound && nextBest > prevWorst:
			return worse, regression
		case worse < -bound && nextWorst < prevBest:
			return worse, improved
		}
		return worse, unresolved
	}
	switch {
	case worse > bound:
		return worse, regression
	case worse < -bound:
		return worse, improved
	}
	return worse, unchanged
}

// sameProtocol refuses two reports that were not measured the same way:
// run length, client count and processors all change what a metric means.
func sameProtocol(prev, next *report) error {
	p, n := prev.Env, next.Env
	if p.Seconds != n.Seconds || p.K != n.K || p.NProc != n.NProc {
		return fmt.Errorf("reports were measured differently: %d s, K=%d, nproc=%d against %d s, K=%d, nproc=%d",
			p.Seconds, p.K, p.NProc, n.Seconds, n.K, n.NProc)
	}
	return nil
}

// compareReports prints the per workload × end-to-end metric delta table
// and returns how many pairs regressed and how many stayed unresolved. A
// tail taken at different percentiles on the two sides is unresolved
// whatever it reads.
func compareReports(w io.Writer, prev, next *report) (regressions, open int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tbound\told spread\tnew spread\tverdict")
	for _, nw := range next.Workloads {
		pw := prev.workload(nw.Name)
		if pw == nil {
			continue
		}
		if nw.Failed > pw.Failed || (pw.Correct && !nw.Correct) {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\tmust not rise\t\t\t%s\n", nw.Name, pw.Failed, nw.Failed, regression)
			regressions++
		}
		for i := range nw.EndToEnd {
			nm := &nw.EndToEnd[i]
			pm := pw.metric(nm.Name)
			d, ok := e2e(nm.Name)
			if pm == nil || !ok || (pm.N == 0 && nm.N == 0) { // the last: does not apply to this workload
				continue
			}
			bound := d.Bound
			worse, v := judge(pm, nm, bound)
			if strings.HasSuffix(nm.Name, "_tail_ms") && pw.TailPercentile != nw.TailPercentile {
				v = unresolved
			}
			switch v {
			case regression:
				regressions++
			case unresolved:
				open++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				nw.Name, nm.Name, pm.Median, nm.Median, 100*worse, 100*bound, 100*spread(pm), 100*spread(nm), v)
		}
	}
	tw.Flush()
	return regressions, open
}

func compareFiles(prevPath, nextPath string) error {
	prev, err := readReport(prevPath)
	if err != nil {
		return err
	}
	next, err := readReport(nextPath)
	if err != nil {
		return err
	}
	if err := sameProtocol(prev, next); err != nil {
		return err
	}
	return verdictError(compareReports(os.Stdout, prev, next))
}

func verdictError(regressions, open int) error {
	if open > 0 {
		fmt.Printf("%d pairs unresolved: a side's own min-max spread is wider than the bound\n", open)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions beyond the bounds", regressions)
	}
	return nil
}

// selfCheck runs the suite twice on the same commit and seed, each time in
// a process of its own so that the second set starts from the same state
// as the first, and applies the comparison: two sets of runs must agree
// within the bounds.
func selfCheck(ctx context.Context, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "openwfbench-selfcheck")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var sets [2]*report
	for i := range sets {
		out := filepath.Join(dir, fmt.Sprintf("set%d.json", i+1))
		cmd := exec.CommandContext(ctx, self,
			"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-o", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set %d: %w", i+1, err)
		}
		if sets[i], err = readReport(out); err != nil {
			return err
		}
	}
	return verdictError(compareReports(os.Stdout, sets[0], sets[1]))
}
