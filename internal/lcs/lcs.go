// Package lcs implements classical dynamic-programming algorithms for the
// longest common subsequence problem. These are the paper's baselines:
//
//   - prefix_rowmajor: linear-space DP in row-major order,
//   - prefix_antidiag: DP in anti-diagonal order (independent cells),
//   - prefix_antidiag branchless: the anti-diagonal order with the
//     conditional replaced by branch-free integer selection, the portable
//     analog of the paper's SIMD variant,
//   - a goroutine-parallel anti-diagonal variant,
//
// plus a quadratic full-table scorer and Hirschberg's linear-space
// sequence recovery, used as correctness oracles by the rest of the
// repository.
package lcs

import "semilocal/internal/parallel"

// ScoreFull computes LCS(a, b) with the full O(mn) table. It is the
// reference oracle; use the prefix variants for long inputs.
func ScoreFull(a, b []byte) int {
	m, n := len(a), len(b)
	w := n + 1
	dp := make([]int32, (m+1)*w)
	for i := 1; i <= m; i++ {
		cur, prev := dp[i*w:], dp[(i-1)*w:]
		ai := a[i-1]
		for j := 1; j <= n; j++ {
			if ai == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
	}
	return int(dp[m*w+n])
}

// PrefixRowMajor computes LCS(a, b) in O(mn) time and O(n) space,
// processing the grid row by row (the paper's prefix_rowmajor).
func PrefixRowMajor(a, b []byte) int {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	row := make([]int32, n+1)
	for i := 0; i < m; i++ {
		ai := a[i]
		var diag int32 // dp[i-1][j-1]
		for j := 1; j <= n; j++ {
			up := row[j]
			if ai == b[j-1] {
				row[j] = diag + 1
			} else if up < row[j-1] {
				row[j] = row[j-1]
			}
			diag = up
		}
	}
	return int(row[n])
}

// diagCells returns the number of cells and the starting row of
// anti-diagonal d of an m×n grid (cells (i,j) with i+j == d).
func diagCells(d, m, n int) (lo, hi int) {
	lo = d - (n - 1)
	if lo < 0 {
		lo = 0
	}
	hi = d
	if hi > m-1 {
		hi = m - 1
	}
	return lo, hi
}

// PrefixAntidiag computes LCS(a, b) iterating over anti-diagonals with
// conditional branching in the cell update (the paper's prefix_antidiag
// before SIMD conversion).
func PrefixAntidiag(a, b []byte) int {
	return prefixAntidiag(a, b, false, 1)
}

// PrefixAntidiagBranchless is PrefixAntidiag with the cell update
// expressed in branch-free integer arithmetic — the portable analog of
// the paper's prefix_antidiag_SIMD.
func PrefixAntidiagBranchless(a, b []byte) int {
	return prefixAntidiag(a, b, true, 1)
}

// PrefixAntidiagParallel processes each anti-diagonal with the given
// number of goroutine workers, with a barrier between diagonals.
func PrefixAntidiagParallel(a, b []byte, workers int) int {
	return prefixAntidiag(a, b, true, workers)
}

// prefixAntidiag runs the anti-diagonal DP. Cells on a diagonal are
// independent: dp(i,j) depends on diagonals d-1 (up, left) and d-2
// (up-left). Three diagonal buffers are rotated.
//
// Buffer convention: buffer index r holds dp values for cells of one
// diagonal, indexed by row i.
func prefixAntidiag(a, b []byte, branchless bool, workers int) int {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	// dp over diagonals: diag d has cells (i, d-i). Store by row index.
	prev2 := make([]int32, m) // diagonal d-2
	prev1 := make([]int32, m) // diagonal d-1
	cur := make([]int32, m)   // diagonal d
	last := int32(0)
	pool := parallel.NewPool(workers)
	for d := 0; d < m+n-1; d++ {
		lo, hi := diagCells(d, m, n)
		body := func(start, end int) {
			for i := start; i < end; i++ {
				j := d - i
				// Neighbors: up (i-1, j) on diag d-1 at row i-1;
				// left (i, j-1) on diag d-1 at row i;
				// up-left (i-1, j-1) on diag d-2 at row i-1.
				var up, left, ul int32
				if i > 0 {
					up = prev1[i-1]
					if j > 0 {
						ul = prev2[i-1]
					}
				}
				if j > 0 {
					left = prev1[i]
				}
				if branchless {
					eq := int32(0)
					if a[i] == b[j] {
						eq = 1
					}
					v := ul + eq
					v = maxBranchless(v, up)
					v = maxBranchless(v, left)
					cur[i] = v
				} else {
					v := up
					if left > v {
						v = left
					}
					if a[i] == b[j] && ul+1 > v {
						v = ul + 1
					}
					cur[i] = v
				}
			}
		}
		if workers > 1 && hi-lo+1 >= 2048 {
			pool.For(lo, hi+1, body)
		} else {
			body(lo, hi+1)
		}
		last = cur[m-1]
		prev2, prev1, cur = prev1, cur, prev2
	}
	return int(last)
}

// maxBranchless returns max(x, y) without a conditional branch, as in the
// paper's branch-elimination discussion. Safe for values whose difference
// does not overflow int32 (LCS scores are bounded by the input length).
func maxBranchless(x, y int32) int32 {
	d := x - y
	return x - (d & (d >> 31))
}

// Sequence returns one longest common subsequence of a and b using
// Hirschberg's linear-space divide-and-conquer.
func Sequence(a, b []byte) []byte {
	out := make([]byte, 0, min(len(a), len(b)))
	return hirschberg(a, b, out)
}

// lastRow returns the final DP row of LCS(a, b) in O(n) space.
func lastRow(a, b []byte) []int32 {
	row := make([]int32, len(b)+1)
	for i := 0; i < len(a); i++ {
		var diag int32
		ai := a[i]
		for j := 1; j <= len(b); j++ {
			up := row[j]
			if ai == b[j-1] {
				row[j] = diag + 1
			} else if up < row[j-1] {
				row[j] = row[j-1]
			}
			diag = up
		}
	}
	return row
}

func reverseBytes(s []byte) []byte {
	r := make([]byte, len(s))
	for i, c := range s {
		r[len(s)-1-i] = c
	}
	return r
}

func hirschberg(a, b []byte, out []byte) []byte {
	m := len(a)
	switch {
	case m == 0:
		return out
	case m == 1:
		for _, c := range b {
			if c == a[0] {
				return append(out, c)
			}
		}
		return out
	}
	mid := m / 2
	top := lastRow(a[:mid], b)
	bot := lastRow(reverseBytes(a[mid:]), reverseBytes(b))
	split, best := 0, int32(-1)
	for j := 0; j <= len(b); j++ {
		if v := top[j] + bot[len(b)-j]; v > best {
			best, split = v, j
		}
	}
	out = hirschberg(a[:mid], b[:split], out)
	return hirschberg(a[mid:], b[split:], out)
}

func min(x, y int) int {
	if x < y {
		return x
	}
	return y
}
