package main

import "openwf/internal/stats"

// sample wraps xs in the repository's stats.Sample, whose percentiles
// interpolate linearly between closest ranks and whose summaries are 0 for
// an empty sample.
func sample(xs []float64) *stats.Sample {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func percentile(xs []float64, p float64) float64 { return sample(xs).Percentile(p) }

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 { return sample(xs).Mean() }

func minMax(xs []float64) (lo, hi float64) {
	s := sample(xs)
	return s.Min(), s.Max()
}

// tailLadder are the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99, 90}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, falling back to the median when
// even the lowest rung has too few.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// perRepMin is the sample count from which a repetition reports its own
// percentiles; below it the repetitions' samples are pooled.
const perRepMin = 1000

// latencySummary reduces per-repetition latency samples to the reported
// percentile: the median over repetitions of each repetition's percentile
// when every repetition has at least perRepMin samples, the percentile of
// the pooled samples otherwise. p < 0 selects the tail rule, applied to
// the sample count the percentile is taken over. It returns the value, the
// min and max over repetitions, the pooled sample count and the
// percentile used.
func latencySummary(reps [][]float64, p float64) (val, lo, hi float64, n int, used float64) {
	perRep := len(reps) > 0
	var pooled []float64
	for _, r := range reps {
		if len(r) < perRepMin {
			perRep = false
		}
		pooled = append(pooled, r...)
	}
	n = len(pooled)
	if n == 0 {
		return 0, 0, 0, 0, p
	}
	used = p
	if p < 0 {
		if perRep {
			smallest := len(reps[0])
			for _, r := range reps {
				smallest = min(smallest, len(r))
			}
			used = tailPercentile(smallest)
		} else {
			used = tailPercentile(n)
		}
	}
	var each []float64
	for _, r := range reps {
		if len(r) > 0 {
			each = append(each, percentile(r, used))
		}
	}
	lo, hi = minMax(each)
	if perRep {
		return median(each), lo, hi, n, used
	}
	return percentile(pooled, used), lo, hi, n, used
}
