// Package stats implements the statistical summaries the paper's
// evaluation uses: percentiles and violin summaries (Figures 8-12),
// trimmed means (§6.1's "20% trimmed mean from six independent experiment
// executions"), Spearman rank correlations with significance levels
// (Table 4).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrEmpty is returned by summaries that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0, 100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// MustPercentile is Percentile for callers that have already validated
// their input; it panics on error.
func MustPercentile(xs []float64, p float64) float64 {
	v, err := Percentile(xs, p)
	if err != nil {
		panic(err)
	}
	return v
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// TrimmedMean returns the mean of xs after removing the lowest and highest
// frac fraction of samples (frac = 0.2 reproduces the paper's "20% trimmed
// mean"). frac must be in [0, 0.5).
func TrimmedMean(xs []float64, frac float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if frac < 0 || frac >= 0.5 {
		return 0, fmt.Errorf("stats: trim fraction %v out of range [0, 0.5)", frac)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(float64(len(s)) * frac)
	s = s[k : len(s)-k]
	return Mean(s)
}

// Summary holds the five percentiles the paper's boxplots annotate
// ("Boxplots indicate 5th, 25th, 50th, 75th, and 95th percentile")
// plus mean, min, max and sample count.
type Summary struct {
	N                                int
	Min, P5, P25, P50, P75, P95, Max float64
	Mean                             float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mean, _ := Mean(s)
	return Summary{
		N:    len(s),
		Min:  s[0],
		P5:   MustPercentile(s, 5),
		P25:  MustPercentile(s, 25),
		P50:  MustPercentile(s, 50),
		P75:  MustPercentile(s, 75),
		P95:  MustPercentile(s, 95),
		Max:  s[len(s)-1],
		Mean: mean,
	}, nil
}

// String renders the summary on one line with millisecond-style precision
// left to the caller's units.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g p5=%.4g p25=%.4g p50=%.4g p75=%.4g p95=%.4g max=%.4g mean=%.4g",
		s.N, s.Min, s.P5, s.P25, s.P50, s.P75, s.P95, s.Max, s.Mean)
}

// DurationSummary is Summarize over time.Durations, reported in
// milliseconds (the unit used throughout the paper's evaluation).
func DurationSummary(ds []time.Duration) (Summary, error) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return Summarize(xs)
}

// Ratio divides two summaries percentile-by-percentile, producing the
// "overhead factor" rows of Figure 12 (e.g. 1.18x at the 50th percentile).
func Ratio(num, den Summary) Summary {
	div := func(a, b float64) float64 {
		if b == 0 {
			return math.Inf(1)
		}
		return a / b
	}
	return Summary{
		N:    num.N,
		Min:  div(num.Min, den.Min),
		P5:   div(num.P5, den.P5),
		P25:  div(num.P25, den.P25),
		P50:  div(num.P50, den.P50),
		P75:  div(num.P75, den.P75),
		P95:  div(num.P95, den.P95),
		Max:  div(num.Max, den.Max),
		Mean: div(num.Mean, den.Mean),
	}
}
