package main

import (
	"fmt"
	"math/rand"
	"time"

	"semilocal"
	"semilocal/internal/bitlcs"
	"semilocal/internal/core"
	"semilocal/internal/editdist"
	"semilocal/internal/query"
	"semilocal/internal/steadyant"
)

// offline: one caller in a closed loop over a seeded interleaving of
// three solver calls — GridReduction kernel solves of 4096×4096 pairs,
// BinaryLCS of 32768-bit pairs and BandedEditDistance of 10⁶-byte pairs
// with 200 planted edits. Each cycle holds offlineCycle in fixed
// proportion, shuffled per cycle by the seed, and the run stops on a
// cycle boundary so every run does the same mix.

type offlineOp int

const (
	opSolve offlineOp = iota
	opBinary
	opBanded
)

var offlineCycle = []offlineOp{opSolve, opSolve, opSolve, opSolve, opBinary, opBanded}

// offlineInputs is the system under test's input set.
type offlineInputs struct {
	solve  []pair
	binary pair
	banded []pair
}

func solveConfig(workers int) core.Config {
	return core.Config{Algorithm: core.GridReduction, Workers: workers}
}

// setupOffline builds the inputs and makes one warm-up call of each
// kind, so lazy set-up (precalc tables, pools) finishes before timing.
func setupOffline(c *runCtx) (*offlineInputs, error) {
	in := &offlineInputs{solve: solvePairs(c.seed), binary: binaryPair(c.seed), banded: bandedPairs(c.seed)}
	steadyant.WarmPrecalc()
	if _, err := core.Solve(in.solve[0].a, in.solve[0].b, solveConfig(c.workers)); err != nil {
		return nil, err
	}
	semilocal.BinaryLCS(in.binary.a, in.binary.b, c.workers)
	semilocal.BandedEditDistance(in.banded[0].a, in.banded[0].b, 0)
	return in, nil
}

// solveRecord is one timed solve kept for the answer checks: the
// kernel's score, and for the first keepKernels solves the kernel
// itself for the semi-local queries (kept kernels would otherwise grow
// the heap the run measures with its length).
type solveRecord struct {
	pair  int
	score int
	k     *core.Kernel
}

const keepKernels = 2 * solvePool

func measureOffline(c *runCtx, d time.Duration, setups int, tr *tracer) (*phase, error) {
	p := &phase{}
	in, err := timeSetups(p, setups, func() (*offlineInputs, error) { return setupOffline(c) }, nil)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(mix(c.seed, labMix, 0)))
	cfg := solveConfig(c.workers)
	var solveDur, binDur, bandDur, cycleDur []time.Duration
	var solves []solveRecord
	var binScores []int
	var bandDists []int
	var bandOK []bool
	cycle := append([]offlineOp(nil), offlineCycle...)
	nextSolve, nextBand := 0, 0
	heap, cpu0 := startHeapSampler(), cpuTime()
	for start := time.Now(); time.Since(start) < d; {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		var cyc time.Duration // the cycle's operations, without the bookkeeping between them
		for _, op := range cycle {
			p.attempted++
			switch op {
			case opSolve:
				i := nextSolve % len(in.solve)
				nextSolve++
				sp := tr.start("core.solve", 0, 0)
				t0 := time.Now()
				k, err := core.Solve(in.solve[i].a, in.solve[i].b, cfg)
				dur := time.Since(t0)
				sp.end()
				solveDur, cyc = append(solveDur, dur), cyc+dur
				if err != nil {
					p.failed++
					continue
				}
				rec := solveRecord{pair: i, score: k.Score()}
				if len(solves) < keepKernels {
					rec.k = k
				}
				solves = append(solves, rec)
			case opBinary:
				sp := tr.start("bitlcs.score", 0, 0)
				t0 := time.Now()
				s := semilocal.BinaryLCS(in.binary.a, in.binary.b, c.workers)
				dur := time.Since(t0)
				sp.end()
				binDur, cyc = append(binDur, dur), cyc+dur
				binScores = append(binScores, s)
			case opBanded:
				i := nextBand % len(in.banded)
				nextBand++
				sp := tr.start("banded.distance", 0, 0)
				t0 := time.Now()
				dist, ok := semilocal.BandedEditDistance(in.banded[i].a, in.banded[i].b, 0)
				dur := time.Since(t0)
				sp.end()
				bandDur, cyc = append(bandDur, dur), cyc+dur
				bandDists = append(bandDists, dist)
				bandOK = append(bandOK, ok)
				if !ok {
					p.failed++
				}
			}
		}
		cycleDur = append(cycleDur, cyc)
	}
	p.heapMB, p.peakRSSMB = heap.finish(), peakRSSMB()
	p.cpuPerOp = (cpuTime() - cpu0) / time.Duration(max(p.attempted, 1))
	// Throughput at the median cycle: a stall slows one cycle, not the
	// figure.
	cd := summarize(cycleDur)
	p.opsPerS = float64(len(offlineCycle)) / cd.p50.Seconds()
	sd, bd, nd := summarize(solveDur), summarize(binDur), summarize(bandDur)
	q := tailQuantile(sd.n)
	p.p50 = sd.p50
	p.tail, _ = sd.at(q)
	p.tailNote = fmt.Sprintf("p%g of %d solves, %d beyond; %d cycles", 100*q, sd.n, beyond(sd.n, q), cd.n)

	cells := float64(solveLen) * solveLen
	bits := float64(binaryBits) * binaryBits
	p.figures = []figure{
		{"solve_gcells_per_s", cells * float64(len(solveDur)) / sumDur(solveDur).Seconds() / 1e9, "Gcells/s", fmt.Sprintf("%d GridReduction solves, %d workers", sd.n, c.workers)},
		{"solve_p50_ms", ms(sd.p50), "ms", fmt.Sprintf("n=%d", sd.n)},
		{"solve_p90_ms", ms(sd.p90), "ms", fmt.Sprintf("n=%d, %d beyond", sd.n, beyond(sd.n, 0.9))},
		{"bitlcs_gcells_per_s", bits * float64(len(binDur)) / sumDur(binDur).Seconds() / 1e9, "Gcells/s", fmt.Sprintf("n=%d, p50 %.3f ms", bd.n, ms(bd.p50))},
		{"banded_p50_ms", ms(nd.p50), "ms", fmt.Sprintf("n=%d", nd.n)},
		{"fail_share", float64(p.failed) / float64(p.attempted), "ratio", fmt.Sprintf("%d of %d", p.failed, p.attempted)},
	}
	if tr != nil {
		p.layer = map[string]float64{}
	}

	checkOffline(c, in, solves, binScores, bandDists, bandOK)
	return p, nil
}

func sumDur(xs []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s
}

// checkOffline verifies every timed answer outside the timed region:
// each kernel's score, and two seeded semi-local queries on each kept
// kernel, against the linear-space DP; every BinaryLCS score against the paper's original
// bit-parallel formula (bitlcs.Old), with BinaryLCS itself checked
// against the DP on a seeded sample of windows of the pair (the DP of
// the whole pair takes seconds); every banded distance against its
// planted edit count, and a reduced-length planted pair against
// editdist.Distance (the exact DP behind EditDistance, which itself
// routes near-identical pairs to the banded solver).
func checkOffline(c *runCtx, in *offlineInputs, solves []solveRecord, bin []int, band []int, bandOK []bool) {
	defer c.checked(time.Now())
	type check struct {
		kind     query.Kind
		from, to int
		want     int
	}
	checks := make([][]check, len(in.solve))
	for i, pr := range in.solve {
		g := newPRNG(mix(c.seed, labCheck, uint64(i)))
		checks[i] = []check{{kind: query.Score}}
		for _, kind := range []query.Kind{quadrantKinds[g.intn(2)], quadrantKinds[2+g.intn(2)]} {
			ch := check{kind: kind}
			m, n := len(pr.a), len(pr.b)
			switch kind {
			case query.StringSubstring:
				ch.from, ch.to = ordered(g.intn(n+1), g.intn(n+1))
			case query.SubstringString:
				ch.from, ch.to = ordered(g.intn(m+1), g.intn(m+1))
			default:
				ch.from, ch.to = g.intn(m+1), g.intn(n+1)
			}
			checks[i] = append(checks[i], ch)
		}
		for j := range checks[i] {
			ch := &checks[i][j]
			key := fmt.Sprintf("solve/%d/%v/%d/%d", i, ch.kind, ch.from, ch.to)
			ch.want = c.memo(key, func() int { return dpAnswer(pr, ch.kind, ch.from, ch.to, 0) })
		}
	}
	for _, s := range solves {
		if want := checks[s.pair][0].want; s.score != want {
			c.wrongf("offline solve pair %d: kernel score %d, DP %d", s.pair, s.score, want)
		}
		if s.k == nil {
			continue
		}
		sess := query.NewSession(s.k)
		for _, ch := range checks[s.pair][1:] {
			if got, _ := expect(sess, ch.kind, ch.from, ch.to, 0); got != ch.want {
				c.wrongf("offline solve pair %d %v(%d,%d): kernel %d, DP %d", s.pair, ch.kind, ch.from, ch.to, got, ch.want)
			}
		}
	}
	if len(bin) > 0 {
		want := c.memo("binary/old", func() int {
			return bitlcs.Score(in.binary.a, in.binary.b, bitlcs.Old, bitlcs.Options{})
		})
		for _, got := range bin {
			if got != want {
				c.wrongf("offline BinaryLCS %d, original formula %d", got, want)
			}
		}
		checkBinarySample(c, in.binary)
	}
	for i, dist := range band {
		if !bandOK[i] || dist > bandedEdits {
			c.wrongf("offline banded distance %d (ok=%v) exceeds %d planted edits", dist, bandOK[i], bandedEdits)
		}
	}
	small := plantedPair(8000, 20, mix(c.seed, labCheck, 1<<20))
	got, ok := semilocal.BandedEditDistance(small.a, small.b, 0)
	want := c.memo("banded-small", func() int { return editdist.Distance(small.a, small.b) })
	if !ok || got != want {
		c.wrongf("offline banded reduced pair: banded %d (ok=%v), DP %d", got, ok, want)
	}
}

// quadrantKinds are the four semi-local query families.
var quadrantKinds = []query.Kind{query.StringSubstring, query.SubstringString, query.SuffixPrefix, query.PrefixSuffix}

// checkBinarySample checks BinaryLCS against the DP on two seeded
// 4096-bit windows of the binary pair.
func checkBinarySample(c *runCtx, p pair) {
	const w = 4096
	g := newPRNG(mix(c.seed, labCheck, 1<<21))
	for i := 0; i < 2; i++ {
		x, y := g.intn(len(p.a)-w+1), g.intn(len(p.b)-w+1)
		a, b := p.a[x:x+w], p.b[y:y+w]
		got := semilocal.BinaryLCS(a, b, c.workers)
		want := c.memo(fmt.Sprintf("binary/%d/%d", x, y), func() int { return semilocal.LCS(a, b) })
		if got != want {
			c.wrongf("offline BinaryLCS on window (%d,%d): %d, DP %d", x, y, got, want)
		}
	}
}

func ordered(x, y int) (int, int) {
	if x > y {
		return y, x
	}
	return x, y
}
