package main

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"
)

func TestScheduleIsSeededPoisson(t *testing.T) {
	const rate = 2000.0
	dur := 5 * time.Second
	a := schedule(42, rate, dur)
	if !slices.Equal(a, schedule(42, rate, dur)) {
		t.Fatal("same seed gave a different schedule")
	}
	if slices.Equal(a, schedule(43, rate, dur)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, at := range a {
		if at < 0 || at >= dur || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %v out of order or outside [0,%v)", i, at, dur)
		}
	}
	// The count of a Poisson process has standard deviation √(λt) = 100.
	if want := rate * dur.Seconds(); math.Abs(float64(len(a))-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d arrivals, want about %.0f", len(a), want)
	}
	// Exponential gaps: the share of gaps above the mean is e^-1.
	mean := time.Duration(float64(time.Second) / rate)
	above := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > mean {
			above++
		}
	}
	if share := float64(above) / float64(len(a)-1); math.Abs(share-math.Exp(-1)) > 0.03 {
		t.Fatalf("share of gaps above the mean = %.3f, want about %.3f", share, math.Exp(-1))
	}
}

// rungOf is a rung at rate whose calls all took lat, with the given
// number of calls at slow.
func rungOf(rate float64, lat time.Duration, slowCalls int, slow time.Duration) rungResult {
	r := rungResult{rate: rate}
	for i := 0; i < 1000; i++ {
		d := lat
		if i < slowCalls {
			d = slow
		}
		r.samples = append(r.samples, sample{dur: d})
	}
	r.ok = r.meets(2)
	return r
}

func TestRungMeetsLimit(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    rungResult
		want bool
	}{
		{"fast", rungOf(1000, time.Millisecond, 0, 0), true},
		{"1% slow keeps p99", rungOf(1000, time.Millisecond, 10, 2*storeLimit), true},
		{"2% slow moves p99", rungOf(1000, time.Millisecond, 20, 2*storeLimit), false},
	} {
		if got := tc.r.meets(2); got != tc.want {
			t.Errorf("%s: meets = %v, want %v", tc.name, got, tc.want)
		}
	}
	r := rungOf(1000, time.Millisecond, 0, 0)
	r.failed = 1
	if r.meets(2) {
		t.Error("a rung with a failed call met the limit")
	}
	r.failed, r.backlog = 0, 25 // the calls due in one 25 ms limit at 1000/s
	if !r.meets(2) {
		t.Error("a backlog of one limit's arrivals counted as growing")
	}
	r.backlog = 26
	if r.meets(2) {
		t.Error("a growing backlog met the limit")
	}
}

func TestSLORateInterpolatesTheKnee(t *testing.T) {
	ms := time.Millisecond
	// Rungs above the 25 ms limit miss it.
	r := func(rate float64, p99 time.Duration) rungResult { return rungOf(rate, p99, 0, 0) }
	// p99 5 ms at 2000/s and 45 ms at 3000/s: 25 ms is crossed halfway.
	rungs := []rungResult{r(1000, 2*ms), r(2000, 5*ms), r(3000, 45*ms), r(4000, 90*ms)}
	if got := sloRate(rungs); math.Abs(got-2500) > 1e-6 {
		t.Fatalf("sloRate = %v, want 2500", got)
	}
	// No miss: the top rung.
	if got := sloRate([]rungResult{r(1000, ms), r(2000, ms)}); got != 2000 {
		t.Fatalf("sloRate with no miss = %v, want 2000", got)
	}
	// Even the first rung misses: interpolate from zero load.
	if got := sloRate([]rungResult{r(1000, 50*ms), r(2000, 90*ms)}); math.Abs(got-500) > 1e-6 {
		t.Fatalf("sloRate with every rung missing = %v, want 500", got)
	}
}

func TestBlockStatsIgnoresOneStalledBlock(t *testing.T) {
	d := 10 * time.Second
	var xs []sample
	for b := 0; b < 10; b++ {
		n, lat := 2000, time.Millisecond
		if b == 3 { // a stall: fewer, slower calls
			n, lat = 200, 50*time.Millisecond
		}
		for i := 0; i < n; i++ {
			end := time.Duration(b)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			xs = append(xs, sample{end: end, dur: lat})
		}
	}
	rate, tail, q := blockStats(xs, d, 10)
	if rate != 2000 || tail != time.Millisecond || q != 0.9 {
		t.Fatalf("blockStats = %v/s, tail %v at p%v; want 2000/s, 1ms at p90 (the stalled block has 200 calls)", rate, tail, 100*q)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(512, zipfS)
	r := newPRNG(1)
	counts := make([]int, 512)
	for i := 0; i < 100000; i++ {
		counts[z.draw(r)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[400] {
		t.Fatalf("zipf counts not decreasing: %d %d %d %d", counts[0], counts[1], counts[10], counts[400])
	}
	// P(rank 0)/P(rank 1) = 2^s.
	if ratio := float64(counts[0]) / float64(counts[1]); math.Abs(ratio-math.Pow(2, zipfS)) > 0.15 {
		t.Fatalf("rank 0/1 ratio %.3f, want about %.3f", ratio, math.Pow(2, zipfS))
	}
}

func TestInputsAreSeeded(t *testing.T) {
	if !bytes.Equal(servePairs(5, 4)[3].a, servePairs(5, 4)[3].a) || bytes.Equal(servePairs(5, 4)[3].a, servePairs(6, 4)[3].a) {
		t.Fatal("serve pairs are not a function of the seed")
	}
	g := &callGen{seed: 9, set: servePairs(9, 2), hitShare: 0.5}
	if !bytes.Equal(g.call(77).body, g.call(77).body) {
		t.Fatal("call bodies are not a function of the seed and id")
	}
	p := plantedPair(5000, 30, 11)
	if len(p.a) != 5000 || bytes.Equal(p.a, p.b) {
		t.Fatal("planted pair has the wrong shape")
	}
	pats := streamPatterns(3)
	if len(pats) != streamP || !bytes.Equal(pats[0], pats[16]) || bytes.Equal(pats[0], pats[4]) {
		t.Fatal("stream patterns should repeat every 16 and differ within a shape's relabelings")
	}
}
