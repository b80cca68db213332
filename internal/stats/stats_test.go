package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("p=-1: want error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("p=101: want error")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		got, err := Percentile([]float64{7}, p)
		if err != nil || got != 7 {
			t.Fatalf("Percentile([7], %v) = %v, %v", p, got, err)
		}
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	f := func(xs []float64, p uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		pp := float64(p % 101)
		v, err := Percentile(xs, pp)
		if err != nil {
			return false
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return v >= s[0] && v <= s[len(s)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMean(t *testing.T) {
	// With 20% trim on 10 samples, the 2 smallest and 2 largest drop.
	xs := []float64{1000, 1, 2, 3, 4, 5, 6, 7, 8, -1000}
	got, err := TrimmedMean(xs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := (2.0 + 3 + 4 + 5 + 6 + 7) / 6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TrimmedMean = %v, want %v", got, want)
	}
}

func TestTrimmedMeanRejectsBadFrac(t *testing.T) {
	for _, f := range []float64{-0.1, 0.5, 0.9} {
		if _, err := TrimmedMean([]float64{1, 2}, f); err == nil {
			t.Errorf("frac=%v: want error", f)
		}
	}
}

func TestTrimmedMeanZeroTrimIsMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tm, err := TrimmedMean(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := Mean(xs)
	if tm != m {
		t.Fatalf("TrimmedMean(0) = %v, Mean = %v", tm, m)
	}
}

func TestSummarizeOrdering(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1000 {
		t.Fatalf("N = %d", s.N)
	}
	order := []float64{s.Min, s.P5, s.P25, s.P50, s.P75, s.P95, s.Max}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("percentiles out of order: %v", order)
		}
	}
	if s.Min != 0 || s.Max != 999 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestDurationSummaryUnits(t *testing.T) {
	s, err := DurationSummary([]time.Duration{time.Second, time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 1000 {
		t.Fatalf("mean = %v ms, want 1000", s.Mean)
	}
}

func TestRatio(t *testing.T) {
	num := Summary{P50: 118, P75: 112, Mean: 143}
	den := Summary{P50: 100, P75: 100, Mean: 100}
	r := Ratio(num, den)
	if math.Abs(r.P50-1.18) > 1e-9 || math.Abs(r.Mean-1.43) > 1e-9 {
		t.Fatalf("Ratio = %+v", r)
	}
	if !math.IsInf(Ratio(Summary{P50: 1}, Summary{}).P50, 1) {
		t.Fatal("division by zero should yield +Inf")
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	c, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Rho-1) > 1e-12 {
		t.Fatalf("rho = %v, want 1", c.Rho)
	}
	if c.P > 0.001 {
		t.Fatalf("p = %v, want < 0.001", c.P)
	}
	if c.Significance() != "p<0.001" {
		t.Fatalf("sig = %q", c.Significance())
	}
}

func TestSpearmanAntiMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{5, 4, 3, 2, 1}
	c, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Rho+1) > 1e-12 {
		t.Fatalf("rho = %v, want -1", c.Rho)
	}
}

func TestSpearmanNonlinearMonotone(t *testing.T) {
	// Spearman sees through monotone nonlinearity (unlike Pearson).
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	c, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Rho-1) > 1e-12 {
		t.Fatalf("rho = %v, want 1", c.Rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 3, 3}
	ys := []float64{1, 2, 3, 4, 5, 6}
	c, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rho <= 0.9 || c.Rho > 1 {
		t.Fatalf("rho with ties = %v, want (0.9, 1]", c.Rho)
	}
}

func TestSpearmanUncorrelated(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ys := []float64{5, 1, 9, 2, 8, 3, 10, 4, 6, 7}
	c, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Rho) > 0.6 {
		t.Fatalf("rho = %v, want near 0", c.Rho)
	}
	if c.P < 0.05 {
		t.Fatalf("p = %v, want not significant", c.P)
	}
	if c.Significance() != "n.s." {
		t.Fatalf("sig = %q", c.Significance())
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Spearman([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("n<3: want error")
	}
	if _, err := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance: want error")
	}
}

func TestSpearmanSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s%1000) / 10
		}
		for i := range xs {
			xs[i] = next()
			ys[i] = next()
		}
		a, errA := Spearman(xs, ys)
		b, errB := Spearman(ys, xs)
		if errA != nil || errB != nil {
			return true // degenerate draw (all ties); nothing to check
		}
		return math.Abs(a.Rho-b.Rho) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTSFKnownValues(t *testing.T) {
	// P(T > 2.228) with 10 df ~= 0.025 (classic t-table value).
	got := studentTSF(2.228, 10)
	if math.Abs(got-0.025) > 0.002 {
		t.Fatalf("studentTSF(2.228, 10) = %v, want ~0.025", got)
	}
	// P(T > 0) = 0.5 for any df.
	if g := studentTSF(0, 5); math.Abs(g-0.5) > 1e-9 {
		t.Fatalf("studentTSF(0, 5) = %v", g)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 {
		t.Error("I_0 != 0")
	}
	if regIncBeta(2, 3, 1) != 1 {
		t.Error("I_1 != 1")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-9 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestMidranksTies(t *testing.T) {
	r := midranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("midranks = %v, want %v", r, want)
		}
	}
}

func TestSummaryString(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "p50=2") {
		t.Fatalf("String() = %q", out)
	}
}

func TestCorrelationString(t *testing.T) {
	c := Correlation{Rho: 0.61, P: 0.0001, N: 100}
	out := c.String()
	if !strings.Contains(out, "+0.61") || !strings.Contains(out, "p<0.001") {
		t.Fatalf("String() = %q", out)
	}
}

func TestTrimmedMeanMatchesPaperMethodology(t *testing.T) {
	// §6.1 uses a "20% trimmed mean from six independent experiment
	// executions": with six samples, the lowest and highest drop.
	samples := []float64{100, 10, 11, 12, 13, 1}
	got, err := TrimmedMean(samples, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := (10.0 + 11 + 12 + 13) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("trimmed mean = %v, want %v", got, want)
	}
}
