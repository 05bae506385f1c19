package semilocal_test

import (
	"testing"
	"time"

	"semilocal/internal/benchkit"
	"semilocal/internal/bitlcs"
	"semilocal/internal/combing"
	"semilocal/internal/dataset"
	"semilocal/internal/hybrid"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"

	"math/rand"
)

// TestPaperShapes asserts the paper's robust qualitative findings as
// executable checks — who wins, not by how much. Each check times its
// two variants alternately and keeps each one's fastest run, so a slow
// phase of a loaded machine (such as `go test ./...` running other
// packages) hits both alike. The margins are the paper's direction with
// a little room, none where the paper's gap is narrow (lookup base 5
// against base 1). Run the full sweeps with cmd/benchsuite for
// quantitative results. Skipped under -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparisons skipped in short mode")
	}
	steadyant.WarmPrecalc()
	// measurePair runs f and g alternately, runs times each, and returns
	// each one's fastest run.
	measurePair := func(runs int, f, g func()) (time.Duration, time.Duration) {
		bf, bg := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for i := 0; i < runs; i++ {
			bf = min(bf, benchkit.Measure(1, f))
			bg = min(bg, benchkit.Measure(1, g))
		}
		return bf, bg
	}

	t.Run("CombinedBraidMultBeatsBase", func(t *testing.T) {
		// Figure 4a: the combined optimizations speed up the steady ant.
		rng := rand.New(rand.NewSource(1))
		p, q := perm.Random(200_000, rng), perm.Random(200_000, rng)
		base, comb := measurePair(5,
			func() { steadyant.MultiplyVariant(p, q, steadyant.Base) },
			func() { steadyant.MultiplyVariant(p, q, steadyant.Combined) })
		if float64(comb) > 0.95*float64(base) {
			t.Errorf("combined (%v) not clearly faster than base (%v)", comb, base)
		}
	})

	t.Run("BitParallelCrushesCombing", func(t *testing.T) {
		// Figure 9e: the bit-parallel algorithm is an order of magnitude
		// faster than word-level combing on binary strings (paper: 29x).
		a, b := dataset.Binary(20_000, 0.5, 1), dataset.Binary(20_000, 0.5, 2)
		bit, comb := measurePair(3,
			func() { bitlcs.Score(a, b, bitlcs.FormulaOpt, bitlcs.Options{}) },
			func() { combing.Antidiag(a, b, combing.Options{Branchless: true}) })
		if float64(comb) < 5*float64(bit) {
			t.Errorf("bit-parallel (%v) should beat combing (%v) by far more than 5x", bit, comb)
		}
	})

	t.Run("FormulaOptNotSlower", func(t *testing.T) {
		// Figure 9b: the 12-op formula beats the 18-op one (paper: 1.48x).
		a, b := dataset.Binary(100_000, 0.5, 1), dataset.Binary(100_000, 0.5, 2)
		mem, form := measurePair(3,
			func() { bitlcs.Score(a, b, bitlcs.MemOpt, bitlcs.Options{}) },
			func() { bitlcs.Score(a, b, bitlcs.FormulaOpt, bitlcs.Options{}) })
		if float64(form) > 1.05*float64(mem) {
			t.Errorf("formula-optimized (%v) slower than bit_new_1 (%v)", form, mem)
		}
	})

	t.Run("DeepHybridCostsSequentialTime", func(t *testing.T) {
		// Figure 6: on short inputs, a deep switch threshold slows the
		// sequential hybrid down.
		a, b := dataset.Normal(10_000, 1, 1), dataset.Normal(10_000, 1, 2)
		flat, deep := measurePair(5,
			func() { hybrid.Hybrid(a, b, hybrid.Options{Depth: 0, Branchless: true}) },
			func() { hybrid.Hybrid(a, b, hybrid.Options{Depth: 6, Branchless: true}) })
		if float64(deep) < 1.05*float64(flat) {
			t.Errorf("depth-6 hybrid (%v) should be slower than depth-0 (%v) sequentially", deep, flat)
		}
	})

	t.Run("PrecalcBaseFiveBeatsBaseOne", func(t *testing.T) {
		// Figure 4a / ablation: deeper lookup base trims recursion.
		rng := rand.New(rand.NewSource(2))
		p, q := perm.Random(200_000, rng), perm.Random(200_000, rng)
		b1, b5 := measurePair(5,
			func() { steadyant.MultiplyWithBase(p, q, 1) },
			func() { steadyant.MultiplyWithBase(p, q, 5) })
		if float64(b5) > float64(b1) {
			t.Errorf("lookup base 5 (%v) slower than base 1 (%v)", b5, b1)
		}
	})
}
