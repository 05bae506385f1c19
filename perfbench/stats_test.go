package main

import (
	"math"
	"testing"
	"time"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := durs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.1, 1 * time.Millisecond},
		{0.11, 2 * time.Millisecond},
		{0.5, 5 * time.Millisecond},
		{0.9, 9 * time.Millisecond},
		{0.99, 10 * time.Millisecond},
		{1, 10 * time.Millisecond},
	} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestRankExactProducts(t *testing.T) {
	// 0.99·1000 is 990.0000000000001 in floating point; the rank must
	// still be 990, leaving exactly 10 samples beyond.
	if r := rank(1000, 0.99); r != 990 {
		t.Fatalf("rank(1000, 0.99) = %d, want 990", r)
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Fatalf("beyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0.5},
		{99, 0.5},
		{100, 0.9},
		{999, 0.9},
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailQuantile(tc.n); q != 0.5 && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", tc.n, 100*q, beyond(tc.n, q))
		}
	}
}

func TestSummarizeKeepsInputOrder(t *testing.T) {
	in := durs(5, 1, 4, 2, 3)
	d := summarize(in)
	if d.n != 5 || d.p50 != 3*time.Millisecond || d.p99 != 5*time.Millisecond {
		t.Fatalf("summarize = %+v", d)
	}
	if in[0] != 5*time.Millisecond {
		t.Fatal("summarize sorted its input in place")
	}
}

// The expected values are Python's statistics.quantiles(data, n=4) and
// statistics.median(data).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data           []float64
		q1, q3, median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3.5, 1.25, 9, 7, 2}, 1.625, 8.0, 3.5},
		{[]float64{10, 20}, 7.5, 22.5, 15},
	} {
		q1, q3 := quartiles(tc.data)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.data, q1, q3, tc.q1, tc.q3)
		}
		if m := median(tc.data); m != tc.median {
			t.Errorf("median(%v) = %v, want %v", tc.data, m, tc.median)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
