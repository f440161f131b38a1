package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if m := s.Mean(); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Errorf("Mean = %v, want 1.5", s.Mean())
	}
}

func TestSampleSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Mean() != 3 || s.Min() != 3 || s.Max() != 3 || s.Percentile(99.9) != 3 {
		t.Errorf("single obs: mean %v, min %v, max %v, p99.9 %v", s.Mean(), s.Min(), s.Max(), s.Percentile(99.9))
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("P0 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Errorf("P100 = %v", p)
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", p)
	}
	var empty Sample
	if p := empty.Percentile(50); p != 0 {
		t.Errorf("empty P50 = %v", p)
	}
	var one Sample
	one.Add(7)
	if p := one.Percentile(73); p != 7 {
		t.Errorf("single P73 = %v", p)
	}
}

// TestPercentileHelpers pins p50, p99 and p999 against known
// distributions: the uniform 1..100 grid (closest-rank interpolation has
// closed-form answers), the uniform 0..999 grid (large enough that p999
// falls strictly inside the tail), a constant sample, and insertion order
// independence (percentiles sort internally).
func TestPercentileHelpers(t *testing.T) {
	var u Sample
	for i := 100; i >= 1; i-- { // reversed insertion: order must not matter
		u.Add(float64(i))
	}
	// rank = p/100*(n-1) over sorted[0..99] = 1..100, so value = rank+1.
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"P50", u.Percentile(50), 0.50*99 + 1},     // 50.5
		{"P99", u.Percentile(99), 0.99*99 + 1},     // 99.01
		{"P999", u.Percentile(99.9), 0.999*99 + 1}, // 99.901
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("uniform[1,100] %s = %v, want %v", c.name, c.got, c.want)
		}
	}

	var big Sample
	for i := 0; i < 1000; i++ {
		big.Add(float64(i))
	}
	if got, want := big.Percentile(99.9), 0.999*999; math.Abs(got-want) > 1e-9 {
		t.Errorf("uniform[0,999] P999 = %v, want %v", got, want)
	}
	if got, want := big.Percentile(50), 0.5*999; math.Abs(got-want) > 1e-9 {
		t.Errorf("uniform[0,999] P50 = %v, want %v", got, want)
	}

	var flat Sample
	for i := 0; i < 50; i++ {
		flat.Add(42)
	}
	for _, p := range flat.Percentiles(50, 99, 99.9) {
		if p != 42 {
			t.Errorf("constant sample percentile = %v, want 42", p)
		}
	}
}

// TestPercentilesSingleSort pins the batch form against the one-at-a-time
// Percentile and checks argument-order preservation.
func TestPercentilesSingleSort(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10} {
		s.Add(x)
	}
	got := s.Percentiles(99.9, 50, 99)
	want := []float64{s.Percentile(99.9), s.Percentile(50), s.Percentile(99)}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	var empty Sample
	for _, v := range empty.Percentiles(50, 99) {
		if v != 0 {
			t.Errorf("empty Percentiles = %v, want zeros", v)
		}
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("5 host")
	s.At(4).Add(0.01)
	s.At(2).Add(0.02)
	s.At(4).Add(0.03)
	if len(s.Points) != 2 || s.Points[2] == nil {
		t.Errorf("points = %v", s.Points)
	}
	if n := s.At(4).N(); n != 2 {
		t.Errorf("At(4).N = %d", n)
	}
}

func TestFigureTable(t *testing.T) {
	f := NewFigure("Figure 4")
	a, b := NewSeries("2 host"), NewSeries("15 host")
	f.Series = append(f.Series, a, b)
	a.At(2).Add(0.001)
	a.At(4).Add(0.002)
	b.At(2).Add(0.005)
	// b has no point at 4 → "-" in the table.
	var sb strings.Builder
	if err := f.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 4", "2 host", "15 host", "0.001000", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	f := NewFigure("Figure 5")
	s := NewSeries("25 task")
	f.Series = append(f.Series, s)
	s.At(2).Add(0.5)
	s.At(3).Add(1.5)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d: %q", len(lines), sb.String())
	}
	if lines[0] != "Path length,25 task" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2,0.5") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`plain`); got != "plain" {
		t.Errorf("csvEscape(plain) = %q", got)
	}
	if got := csvEscape(`has,comma`); got != `"has,comma"` {
		t.Errorf("csvEscape = %q", got)
	}
	if got := csvEscape(`has"quote`); got != `"has""quote"` {
		t.Errorf("csvEscape = %q", got)
	}
}

// TestPropMeanWithinBounds: the mean of any sample lies in [min, max].
func TestPropMeanWithinBounds(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		count := int(n%50) + 1
		for i := 0; i < count; i++ {
			s.Add(rng.NormFloat64() * 100)
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropPercentileMonotone: percentiles are monotone in p.
func TestPropPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < 20; i++ {
			s.Add(rng.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
