package main

import (
	"math"
	"sort"
	"time"
)

// Exact latency summaries. Every timed operation keeps its raw
// duration; quantiles are order statistics of those samples, never
// histogram bucket edges.

// minBeyond is how many samples must lie past a percentile before the
// benchmark reports it.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.9}

// rank is the 1-based nearest-rank position of quantile q among n
// sorted samples: the smallest r with r ≥ q·n. The epsilon keeps
// products such as 0.99·1000 from rounding up past an exact integer.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked strictly after quantile q.
func beyond(n int, q float64) int { return n - rank(n, q) }

// quantile returns the nearest-rank order statistic of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailQuantile is the highest candidate percentile with at least
// minBeyond samples beyond it among n samples, or the median when even
// p90 has too few.
func tailQuantile(n int) float64 {
	for _, q := range tailCandidates {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// dist summarizes one set of per-operation durations.
type dist struct {
	sorted []time.Duration
	n      int
	p50    time.Duration
	p90    time.Duration
	p99    time.Duration
}

func summarize(xs []time.Duration) dist {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := dist{sorted: s, n: len(s)}
	if len(s) == 0 {
		return d
	}
	d.p50 = quantile(s, 0.5)
	d.p90 = quantile(s, 0.9)
	d.p99 = quantile(s, 0.99)
	return d
}

// at returns the order statistic for q, with the number of samples
// beyond it.
func (d dist) at(q float64) (time.Duration, int) {
	return quantile(d.sorted, q), beyond(d.n, q)
}

// median of float values (mean of the middle pair for even counts),
// as Python's statistics.median computes it.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(vals, n=4) computes them (the default
// "exclusive" method), so the repeat mode reports the same spread the
// acceptance check computes. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// sample is one timed operation: when it ended, as an offset from the
// start of its phase, and how long it took.
type sample struct {
	end, dur time.Duration
}

func durations(xs []sample) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.dur
	}
	return out
}

// blockStats splits a phase of length d into n equal blocks by end time
// (operations ending after d count in the last block) and returns the
// median over blocks of the completion rate per second and of the
// block's tail. Every block's tail is taken at the same percentile: the
// highest with at least minBeyond samples beyond it in the smallest
// block. Medians over blocks keep a stall confined to one block from
// moving the figures.
func blockStats(xs []sample, d time.Duration, n int) (rate float64, tail time.Duration, tailQ float64) {
	blocks := make([][]time.Duration, n)
	for _, x := range xs {
		b := min(int(int64(x.end)*int64(n)/int64(d)), n-1)
		blocks[max(b, 0)] = append(blocks[max(b, 0)], x.dur)
	}
	smallest := len(xs)
	rates := make([]float64, n)
	for i, b := range blocks {
		rates[i] = float64(len(b)) / (d.Seconds() / float64(n))
		smallest = min(smallest, len(b))
	}
	tailQ = tailQuantile(smallest)
	tails := make([]float64, 0, n)
	for _, b := range blocks {
		if len(b) > 0 {
			s := summarize(b)
			v, _ := s.at(tailQ)
			tails = append(tails, float64(v))
		}
	}
	return median(rates), time.Duration(median(tails)), tailQ
}
