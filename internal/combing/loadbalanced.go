package combing

import (
	"semilocal/internal/obs"
	"semilocal/internal/parallel"
	"semilocal/internal/perm"
)

// LoadBalanced computes the kernel as three independent sub-braids — one
// per anti-diagonal phase — composed with sticky braid multiplication
// (the paper's semi_load_balanced). Phases 1 and 3 are paired so that
// every parallel iteration processes exactly m cells, improving load
// balance and halving the number of barriers relative to Antidiag. The
// mult argument supplies braid multiplication (typically
// steadyant.Multiply).
func LoadBalanced(a, b []byte, opt Options, mult Multiplier) perm.Permutation {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return trivialKernel(m, n)
	}
	if m > n {
		return LoadBalanced(b, a, opt, mult).Rotate180()
	}
	if m == 1 {
		// No triangular phases exist; plain anti-diagonal combing.
		return Antidiag(a, b, opt)
	}

	pool := parallel.NewPool(opt.Workers)

	// Boundary relabelings between the phases. Sticky multiplication glues
	// braids by boundary position, and along an anti-diagonal frontier the
	// horizontal and vertical tracks interleave, so each phase braid is
	// combed with strand values equal to its entry-frontier positions (the
	// crossed-before test "h > v" is only meaningful in the order of the
	// braid's own start boundary).
	rhoA := Frontier(m-1, m, n)     // between phases 1 and 2
	rhoB := Frontier(n, m, n)       // between phases 2 and 3
	rhoEnd := Frontier(m+n-1, m, n) // canonical end order

	// Phase braids over the full m+n tracks.
	st1 := newState(a, b) // top-left triangle; entry = canonical start order
	st3 := newState(a, b) // bottom-right triangle
	seedState(st3, rhoB)
	run1 := st1.runner(&opt)
	run3 := st3.runner(&opt)

	// Paired iterations: phase-1 diagonal q-1 (length q) together with
	// phase-3 diagonal q-1 (length m-q): exactly m cells per iteration.
	// The two braids use disjoint state, so the pair can share one
	// parallel loop.
	inner1, inner3 := st1.innerBranch, st3.innerBranch
	if opt.Branchless {
		inner1, inner3 = st1.innerBranchless, st3.innerBranchless
	}
	sp := opt.Rec.Start(obs.StageCombDiags)
	for q := 1; q < m; q++ {
		len1, h1, v1 := q, m-q, 0
		len3, h3, v3 := m-q, 0, n-m+q
		if opt.Workers > 1 && m >= opt.minChunk() {
			pool.For(0, m, func(lo, hi int) {
				// Cells [0,len1) belong to the phase-1 diagonal, cells
				// [len1, m) to the phase-3 diagonal.
				if lo < len1 {
					end := min(hi, len1)
					inner1(lo, end, h1, v1)
				}
				if hi > len1 {
					start := max(lo, len1)
					inner3(start-len1, hi-len1, h3, v3)
				}
			})
		} else {
			run1(len1, h1, v1)
			run3(len3, h3, v3)
		}
	}

	// Phase 2: the full-length band, as its own braid.
	st2 := newState(a, b)
	seedState(st2, rhoA)
	run2 := st2.runner(&opt)
	for k := 0; k <= n-m; k++ {
		run2(m, 0, k)
	}
	sp.End()
	// Phases 1+3 process m cells per paired iteration over m-1
	// iterations; phase 2 covers the remaining band. Together: every
	// cell exactly once.
	opt.Rec.Add(obs.CounterCombCells, int64(m)*int64(n))
	opt.Rec.Add(obs.CounterCombDiags, int64(m+n-1))

	// Compose the three sub-braids in grid order: phase 1, then 2, then 3.
	// stateKernel maps a strand's value — its entry-frontier position — to
	// its final track; relabeling the track through the exit frontier
	// yields the braid as a permutation between frontier coordinates.
	// The multiplications record their own compose spans (when mult is
	// observed), so only the relabeling is attributed to comb_finish.
	fsp := opt.Rec.Start(obs.StageCombFinish)
	p1 := stateKernel(st1, m, n).ApplyAfter(rhoA)
	p2 := stateKernel(st2, m, n).ApplyAfter(rhoB)
	p3 := stateKernel(st3, m, n).ApplyAfter(rhoEnd)
	fsp.End()
	return mult(mult(p1, p2), p3)
}

// seedState assigns each track the value of its position along the given
// entry frontier, so that chunk combing's crossed-before comparison works
// in the order of the chunk's own start boundary.
func seedState(st *state, rho perm.Permutation) {
	m := len(st.hs)
	for l := range st.hs {
		st.hs[l] = int32(rho.Col(l))
	}
	for r := range st.vs {
		st.vs[r] = int32(rho.Col(m + r))
	}
}

// Frontier returns the boundary relabeling before anti-diagonal d of an
// m×n grid: a permutation mapping canonical track index (horizontal
// tracks 0…m-1 bottom-up, vertical tracks m…m+n-1 left-right) to the
// position at which the track crosses the staircase frontier separating
// cells with i+j < d from the rest, walking the frontier from the grid's
// bottom-left to its top-right corner. Frontier(0) is the identity (the
// canonical start order) and Frontier(m+n-1) is the canonical end order
// (bottom edge, then right edge bottom-up).
func Frontier(d, m, n int) perm.Permutation {
	rho := make([]int32, m+n)
	pos := int32(0)
	// Horizontal tracks of untouched rows (i > d), crossed on the left edge.
	for i := m - 1; i > d; i-- {
		rho[m-1-i] = pos
		pos++
	}
	// Vertical tracks of fully processed columns (j ≤ d-m), bottom edge.
	for j := 0; j <= d-m && j < n; j++ {
		rho[m+j] = pos
		pos++
	}
	// The staircase along the cells of anti-diagonal d, bottom-left to
	// top-right: each cell contributes its left edge (a horizontal track)
	// then its top edge (a vertical track).
	iHi, iLo := min(m-1, d), max(0, d-n+1)
	for i := iHi; i >= iLo; i-- {
		rho[m-1-i] = pos
		pos++
		rho[m+d-i] = pos
		pos++
	}
	// Horizontal tracks of fully processed rows (i ≤ d-n), right edge
	// bottom-up.
	for i := d - n; i >= 0; i-- {
		rho[m-1-i] = pos
		pos++
	}
	// Vertical tracks of untouched columns (j > d), top edge.
	for j := d + 1; j < n; j++ {
		rho[m+j] = pos
		pos++
	}
	return perm.FromRowToCol(rho)
}

// stateKernel converts final track occupancy into the track-state
// permutation: strand s (identified by its start track) maps to the
// track it occupies at the end of the chunk, in the same [horizontal
// 0…m-1 | vertical m…m+n-1] track ordering used for starts. Chunk braids
// composed with sticky multiplication must share domain and codomain
// indexing, which is why the ends are not relabeled here.
func stateKernel(st *state, m, n int) perm.Permutation {
	out := make([]int32, m+n)
	for l, s := range st.hs {
		out[s] = int32(l)
	}
	for r, s := range st.vs {
		out[s] = int32(m + r)
	}
	return perm.FromRowToCol(out)
}

// relabelEnds converts a track-state permutation into the kernel by
// applying the end labeling of Listing 1 phase 3: horizontal track l ↦
// end n+l, vertical track m+r ↦ end r.
func relabelEnds(state perm.Permutation, m, n int) perm.Permutation {
	out := make([]int32, m+n)
	for s, t := range state.RowToCol() {
		if int(t) < m {
			out[s] = int32(n) + t
		} else {
			out[s] = t - int32(m)
		}
	}
	return perm.FromRowToCol(out)
}

func min(x, y int) int {
	if x < y {
		return x
	}
	return y
}

func max(x, y int) int {
	if x > y {
		return x
	}
	return y
}
