package stream

import "semilocal/internal/steadyant"

// composer performs the b-axis kernel composition of Theorem 3.4 —
// flipped per Theorem 3.5, since the window grows along b — without
// allocating: both kernels are rotated by 180° into retained scratch,
// composed by steadyant.Workspace.ComposeInto (whose steady ant runs
// only on the m pattern strands the two pieces share), and the product
// is un-rotated in place in the caller's destination buffer:
//
//	P(a, b'b'') = rot180( (I_{n2} ⊕ rot180(k1)) ⊙ (rot180(k2) ⊕ I_{n1}) )
//
// with k1 = P(a,b'), k2 = P(a,b”). A composition costs O(m+n1+n2)
// plus one multiplication of order m.
type composer struct {
	w          steadyant.Workspace
	rot1, rot2 []int32
}

// grow ensures the rotation scratch fits kernels of order n.
func (c *composer) grow(n int) {
	if cap(c.rot1) >= n {
		return
	}
	c.rot1 = make([]int32, n)
	c.rot2 = make([]int32, n)
}

// warm pre-grows every retained buffer for compositions up to order n,
// so steady-state calls at or below it allocate nothing.
func (c *composer) warm(n int) {
	c.grow(n)
	c.w.Warm(n)
}

// composeB writes the kernel of (a, b1·b2) into dst, given the kernels
// k1 = P(a,b1) and k2 = P(a,b2) as row→column arrays; m = |a|,
// n1 = |b1|, n2 = |b2|, len(dst) = m+n1+n2. dst must not alias k1 or
// k2.
func (c *composer) composeB(k1, k2 []int32, m, n1, n2 int, dst []int32) {
	N := m + n1 + n2
	if len(k1) != m+n1 || len(k2) != m+n2 || len(dst) != N {
		panic("stream: composeB length mismatch")
	}
	c.grow(max(len(k1), len(k2)))
	r1, r2 := rotate180(k1, c.rot1), rotate180(k2, c.rot2)
	c.w.ComposeInto(r1, r2, n1, n2, m, dst)
	rotate180(dst, dst)
}

// rotate180 writes the 180° rotation of the permutation k into dst
// (dst[i] = N-1 - k[N-1-i], N = len(k)) and returns dst[:N]; dst may
// alias k.
func rotate180(k, dst []int32) []int32 {
	N := len(k)
	dst = dst[:N]
	for i, j := 0, N-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = int32(N-1)-k[j], int32(N-1)-k[i]
	}
	if N%2 == 1 {
		mid := N / 2
		dst[mid] = int32(N-1) - k[mid]
	}
	return dst
}
