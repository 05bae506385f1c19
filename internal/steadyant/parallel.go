package steadyant

import (
	"fmt"

	"semilocal/internal/parallel"
	"semilocal/internal/perm"
)

// ParallelOptions configure MultiplyParallel (Listing 5).
type ParallelOptions struct {
	// SwitchDepth is the recursion level at which the computation
	// switches to the sequential Combined algorithm. 0 is fully
	// sequential; the paper's Figure 4b sweeps this in 0…6 and finds 4
	// optimal on its 8-core machine.
	SwitchDepth int
}

// MultiplyParallel is the coarse-grained parallel steady ant: the two
// recursive sub-products at each level above SwitchDepth run as parallel
// tasks (the mapping and ant-passage stages are inherently sequential, as
// the paper notes), and levels at or below the switch run the sequential
// Combined algorithm. The recursion forks on the process-wide helper
// team of package parallel, which bounds how many branches run at once.
func MultiplyParallel(p, q perm.Permutation, opt ParallelOptions) perm.Permutation {
	n := p.Size()
	if q.Size() != n {
		panic(fmt.Sprintf("steadyant: multiplying orders %d and %d", n, q.Size()))
	}
	if n == 0 {
		return perm.Identity(0)
	}
	if opt.SwitchDepth <= 0 {
		return MultiplyVariant(p, q, Combined)
	}
	pool := parallel.NewPool(2) // Do's two branches; the team bounds the rest
	return perm.FromRowToCol(multiplyPar(p.RowToCol(), q.RowToCol(), opt.SwitchDepth, pool))
}

func multiplyPar(p, q []int32, depthLeft int, pool *parallel.Pool) []int32 {
	n := len(p)
	if depthLeft == 0 || n <= precalcOrder {
		return multiplyArena(perm.FromRowToCol(p), perm.FromRowToCol(q), precalcOrder).RowToCol()
	}
	h := n / 2

	pLo := make([]int32, h)
	pHi := make([]int32, n-h)
	loRows := make([]int32, h)
	hiRows := make([]int32, n-h)
	splitP(p, h, pLo, pHi, loRows, hiRows)

	qLo := make([]int32, h)
	qHi := make([]int32, n-h)
	loCols := make([]int32, h)
	hiCols := make([]int32, n-h)
	colRank := make([]int32, n)
	splitQ(q, h, qLo, qHi, loCols, hiCols, colRank)

	var rLo, rHi []int32
	pool.Do(
		func() { rLo = multiplyPar(pLo, qLo, depthLeft-1, pool) },
		func() { rHi = multiplyPar(pHi, qHi, depthLeft-1, pool) },
	)

	loR2C := make([]int32, n)
	loC2R := make([]int32, n)
	hiR2C := make([]int32, n)
	hiC2R := make([]int32, n)
	expand(rLo, loRows, loCols, loR2C, loC2R)
	expand(rHi, hiRows, hiCols, hiR2C, hiC2R)

	res := make([]int32, n)
	antPassage(loR2C, loC2R, hiR2C, hiC2R, res)
	return res
}
