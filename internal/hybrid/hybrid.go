// Package hybrid implements the divide-and-conquer semi-local LCS
// algorithms of the paper: recursive combing (Listing 3), the hybrid
// combining recursion with iterative combing below a threshold depth
// (Listing 6), and the optimized recursion-free grid-reduction hybrid
// (Listing 7).
//
// All algorithms split the LCS grid, solve sub-grids independently (in
// parallel where requested), and compose the sub-kernels with sticky
// braid multiplication. Splitting string a (a horizontal grid cut) uses
// Theorem 3.4 directly; splitting string b uses the flip of Theorem 3.5:
// P(a,b) is the 180° rotation of P(b,a).
package hybrid

import (
	"semilocal/internal/combing"
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// Mult is a sticky braid multiplication routine.
type Mult = func(p, q perm.Permutation) perm.Permutation

// composeA glues the kernels of (a', b) and (a”, b) into the kernel of
// (a'a”, b); m1, m2 are the lengths of a', a”.
func composeA(k1, k2 perm.Permutation, m1, m2, n int, mult Mult) perm.Permutation {
	return steadyant.Compose(k1, k2, m1, m2, n, mult)
}

// composeB glues the kernels of (a, b') and (a, b”) into the kernel of
// (a, b'b”): flip both to the transposed problem, compose along the
// first string, flip back.
func composeB(k1, k2 perm.Permutation, m, n1, n2 int, mult Mult) perm.Permutation {
	p := steadyant.Compose(k1.Rotate180(), k2.Rotate180(), n1, n2, m, mult)
	return p.Rotate180()
}

// Recursive computes the kernel by pure recursive combing (Listing 3):
// the grid is halved along its longer string down to single characters,
// whose kernels are the identity (match) or the order-2 reversal
// (mismatch), and the halves are composed by braid multiplication.
func Recursive(a, b []byte, mult Mult) perm.Permutation {
	m, n := len(a), len(b)
	switch {
	case m == 0 || n == 0:
		return trivialKernel(m, n)
	case m == 1 && n == 1:
		if a[0] == b[0] {
			return perm.Identity(2)
		}
		return perm.Reverse(2)
	case m >= n:
		cut := m / 2
		l := Recursive(a[:cut], b, mult)
		r := Recursive(a[cut:], b, mult)
		return composeA(l, r, cut, m-cut, n, mult)
	default:
		cut := n / 2
		l := Recursive(a, b[:cut], mult)
		r := Recursive(a, b[cut:], mult)
		return composeB(l, r, m, cut, n-cut, mult)
	}
}

// trivialKernel is the kernel of a pair involving an empty string.
func trivialKernel(m, n int) perm.Permutation {
	// No cell exists: every horizontal strand exits at its own level and
	// every vertical strand at its own column.
	out := make([]int32, m+n)
	for s := 0; s < m; s++ {
		out[s] = int32(n + s)
	}
	for s := 0; s < n; s++ {
		out[m+s] = int32(s)
	}
	return perm.FromRowToCol(out)
}

// Options configure Hybrid (Listing 6).
type Options struct {
	// Depth is the number of recursion levels before switching to
	// iterative combing. 0 is pure iterative combing; the paper's
	// Figure 6 sweeps this tradeoff.
	Depth int
	// Workers bounds concurrently executing recursion branches (the
	// paper's coarse-grained parallelism). ≤ 1 is sequential.
	Workers int
	// Branchless selects the branch-free iterative combing at the leaves.
	Branchless bool
	// Mult is the braid multiplication used for composition; nil selects
	// the sequential combined steady ant.
	Mult Mult
	// Rec receives stage timings and counters from the leaf combing and
	// (when Mult is nil) the compositions; nil disables instrumentation.
	Rec *obs.Recorder
}

func (o Options) mult() Mult {
	if o.Mult != nil {
		return o.Mult
	}
	return steadyant.ObservedMult(o.Rec)
}

// Hybrid computes the kernel by recursive splitting down to the given
// depth and iterative combing below it (Listing 6). Sub-problems at the
// same recursion level run as parallel tasks when opt.Workers > 1.
func Hybrid(a, b []byte, opt Options) perm.Permutation {
	return hybridRec(a, b, opt.Depth, parallel.NewPool(opt.Workers), &opt)
}

func hybridRec(a, b []byte, depth int, pool *parallel.Pool, opt *Options) perm.Permutation {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return trivialKernel(m, n)
	}
	if depth <= 0 || m+n <= 4 {
		return combing.Antidiag(a, b, combing.Options{Branchless: opt.Branchless, Rec: opt.Rec})
	}
	mult := opt.mult()
	var l, r perm.Permutation
	if m >= n {
		cut := m / 2
		pool.Do(
			func() { l = hybridRec(a[:cut], b, depth-1, pool, opt) },
			func() { r = hybridRec(a[cut:], b, depth-1, pool, opt) },
		)
		return composeA(l, r, cut, m-cut, n, mult)
	}
	cut := n / 2
	pool.Do(
		func() { l = hybridRec(a, b[:cut], depth-1, pool, opt) },
		func() { r = hybridRec(a, b[cut:], depth-1, pool, opt) },
	)
	return composeB(l, r, m, cut, n-cut, mult)
}
