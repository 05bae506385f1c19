// Benchmarks mirroring the paper's evaluation, one per figure. These are
// fixed-size testing.B counterparts of cmd/benchsuite, which performs the
// full parameter sweeps; see DESIGN.md §4 for the experiment index.
package semilocal_test

import (
	"fmt"
	"math/rand"
	"testing"

	"semilocal/internal/bitlcs"
	"semilocal/internal/combing"
	"semilocal/internal/dataset"
	"semilocal/internal/hybrid"
	"semilocal/internal/lcs"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

const (
	benchPermSize = 100_000 // braid multiplication order
	benchStrLen   = 10_000  // combing string length
	benchBinLen   = 100_000 // bit-parallel binary length
)

func benchPerms(b *testing.B, n int) (perm.Permutation, perm.Permutation) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return perm.Random(n, rng), perm.Random(n, rng)
}

func benchStrings(b *testing.B, n int, sigma float64) ([]byte, []byte) {
	b.Helper()
	return dataset.Normal(n, sigma, 1), dataset.Normal(n, sigma, 2)
}

// BenchmarkFig4aBraidMult — sequential braid multiplication variants
// (Figure 4a).
func BenchmarkFig4aBraidMult(b *testing.B) {
	steadyant.WarmPrecalc()
	p, q := benchPerms(b, benchPermSize)
	for _, v := range []steadyant.Variant{steadyant.Base, steadyant.Precalc, steadyant.Memory, steadyant.Combined} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				steadyant.MultiplyVariant(p, q, v)
			}
		})
	}
}

// BenchmarkFig4bParallelBraidMult — parallel steady ant by switch depth
// (Figure 4b).
func BenchmarkFig4bParallelBraidMult(b *testing.B) {
	steadyant.WarmPrecalc()
	p, q := benchPerms(b, 2*benchPermSize)
	for _, depth := range []int{0, 2, 4, 6} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				steadyant.MultiplyParallel(p, q, steadyant.ParallelOptions{SwitchDepth: depth})
			}
		})
	}
}

// BenchmarkFig4cLoadBalanced — basic vs load-balanced iterative combing
// (Figure 4c).
func BenchmarkFig4cLoadBalanced(b *testing.B) {
	steadyant.WarmPrecalc()
	x, y := benchStrings(b, benchStrLen, 1)
	b.Run("semi_antidiag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combing.Antidiag(x, y, combing.Options{Branchless: true})
		}
	})
	b.Run("semi_load_balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combing.LoadBalanced(x, y, combing.Options{Branchless: true}, steadyant.Multiply)
		}
	})
}

// BenchmarkFig5Scorers — prefix LCS vs semi-local combing (Figure 5).
func BenchmarkFig5Scorers(b *testing.B) {
	scorers := []struct {
		name string
		run  func(a, b []byte)
	}{
		{"prefix_rowmajor", func(a, b []byte) { lcs.PrefixRowMajor(a, b) }},
		{"prefix_antidiag", func(a, b []byte) { lcs.PrefixAntidiag(a, b) }},
		{"prefix_antidiag_simd", func(a, b []byte) { lcs.PrefixAntidiagBranchless(a, b) }},
		{"semi_rowmajor", func(a, b []byte) { combing.RowMajor(a, b) }},
		{"semi_antidiag", func(a, b []byte) { combing.Antidiag(a, b, combing.Options{}) }},
		{"semi_antidiag_simd", func(a, b []byte) { combing.Antidiag(a, b, combing.Options{Branchless: true}) }},
	}
	synthA, synthB := benchStrings(b, benchStrLen, 1)
	genA, genB := dataset.GenomePair(benchStrLen, 3)
	inputs := []struct {
		name string
		a, b []byte
	}{
		{"sigma1", synthA, synthB},
		{"genome", genA, genB},
	}
	for _, in := range inputs {
		for _, s := range scorers {
			in, s := in, s
			b.Run(in.name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.run(in.a, in.b)
				}
			})
		}
	}
}

// BenchmarkFig6HybridDepth — hybrid switch-depth tradeoff (Figure 6).
func BenchmarkFig6HybridDepth(b *testing.B) {
	steadyant.WarmPrecalc()
	x, y := benchStrings(b, benchStrLen, 1)
	for depth := 0; depth <= 6; depth += 2 {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hybrid.Hybrid(x, y, hybrid.Options{Depth: depth, Branchless: true})
			}
		})
	}
}

// BenchmarkFig7Threads — parallel semi-local algorithms by worker count
// (Figure 7).
func BenchmarkFig7Threads(b *testing.B) {
	steadyant.WarmPrecalc()
	x, y := benchStrings(b, benchStrLen, 1)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("semi_antidiag_simd/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				combing.Antidiag(x, y, combing.Options{Workers: w, Branchless: true})
			}
		})
		b.Run(fmt.Sprintf("semi_load_balanced/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				combing.LoadBalanced(x, y, combing.Options{Workers: w, Branchless: true}, steadyant.Multiply)
			}
		})
	}
}

// BenchmarkFig8Scalability — the strongest parallel algorithm (grid
// reduction with 16-bit tiles) by worker count (Figure 8).
func BenchmarkFig8Scalability(b *testing.B) {
	steadyant.WarmPrecalc()
	x, y := benchStrings(b, benchStrLen, 1)
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("semi_hybrid_iterative/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hybrid.GridReduction(x, y, hybrid.GridOptions{Workers: w, Tiles: 2 * w, Use16: true})
			}
		})
	}
}

func benchBinary(b *testing.B, n int) ([]byte, []byte) {
	b.Helper()
	return dataset.Binary(n, 0.5, 1), dataset.Binary(n, 0.5, 2)
}

// BenchmarkFig9aMemoryOpt — bit_old vs bit_new_1 across threads
// (Figure 9a).
func BenchmarkFig9aMemoryOpt(b *testing.B) {
	x, y := benchBinary(b, benchBinLen)
	for _, w := range []int{1, 4} {
		for _, v := range []bitlcs.Version{bitlcs.Old, bitlcs.MemOpt} {
			w, v := w, v
			b.Run(fmt.Sprintf("%v/w%d", v, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bitlcs.Score(x, y, v, bitlcs.Options{Workers: w})
				}
			})
		}
	}
}

// BenchmarkFig9bFormulaOpt — bit_new_1 vs bit_new_2 (Figure 9b).
func BenchmarkFig9bFormulaOpt(b *testing.B) {
	x, y := benchBinary(b, benchBinLen)
	for _, v := range []bitlcs.Version{bitlcs.MemOpt, bitlcs.FormulaOpt} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitlcs.Score(x, y, v, bitlcs.Options{})
			}
		})
	}
}

// BenchmarkFig9cdBinaryScaling — bit-parallel and hybrid on binary
// strings across threads (Figures 9c and 9d).
func BenchmarkFig9cdBinaryScaling(b *testing.B) {
	steadyant.WarmPrecalc()
	x, y := benchBinary(b, benchBinLen)
	hx, hy := benchBinary(b, benchStrLen)
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("bit_new_2/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitlcs.Score(x, y, bitlcs.FormulaOpt, bitlcs.Options{Workers: w})
			}
		})
		b.Run(fmt.Sprintf("semi_hybrid_iterative/w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hybrid.GridReduction(hx, hy, hybrid.GridOptions{Workers: w, Tiles: 2 * w, Use16: true})
			}
		})
	}
}

// BenchmarkFig9eBinaryCompare — bit-parallel vs combing algorithms on
// the same binary input (Figure 9e).
func BenchmarkFig9eBinaryCompare(b *testing.B) {
	steadyant.WarmPrecalc()
	x, y := benchBinary(b, benchStrLen)
	b.Run("bit_new_2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitlcs.Score(x, y, bitlcs.FormulaOpt, bitlcs.Options{})
		}
	})
	b.Run("cipr_bitvector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitlcs.CIPR(x, y)
		}
	})
	b.Run("semi_hybrid_iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hybrid.GridReduction(x, y, hybrid.GridOptions{Tiles: 8, Use16: true})
		}
	})
	b.Run("semi_antidiag_simd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combing.Antidiag(x, y, combing.Options{Branchless: true})
		}
	})
}

// BenchmarkExtAlphabetBit — the bit-plane generalization of the
// bit-parallel algorithm across alphabet sizes (extension experiment;
// paper's future work).
func BenchmarkExtAlphabetBit(b *testing.B) {
	for _, sigma := range []int{2, 4, 26} {
		a := dataset.Uniform(benchStrLen, sigma, 1)
		c := dataset.Uniform(benchStrLen, sigma, 2)
		sigma := sigma
		b.Run(fmt.Sprintf("sigma%d", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bitlcs.ScoreAlphabet(a, c, bitlcs.Options{})
			}
		})
	}
}

// BenchmarkAblationSelect — branch-elimination strategies for the
// combing inner loop (branching / arithmetic / min-max / bitwise).
func BenchmarkAblationSelect(b *testing.B) {
	x, y := benchStrings(b, benchStrLen, 1)
	variants := []struct {
		name string
		opt  combing.Options
	}{
		{"branching", combing.Options{}},
		{"arithmetic", combing.Options{Branchless: true, ArithmeticSelect: true}},
		{"minmax", combing.Options{Branchless: true, MinMaxSelect: true}},
		{"bitwise", combing.Options{Branchless: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				combing.Antidiag(x, y, v.opt)
			}
		})
	}
}
