package steadyant

import (
	"fmt"

	"semilocal/internal/perm"
)

// Compose implements the kernel composition of Theorem 3.4: given the
// kernels k1 = P(a', b) and k2 = P(a”, b) with |a'| = m1, |a”| = m2,
// |b| = n, it returns P(a'a”, b) of order m1+m2+n:
//
//	P(a'a'', b) = (I_{m2} ⊕ k1) ⊙ (k2 ⊕ I_{m1})
//
// In the canonical boundary order (left edge bottom-up, then top edge),
// the strands of a” pass untouched below the braid of a' (hence the
// identity block at the low indices of k1's extension), and the already
// exited strands of a' pass untouched above the braid of a” (the high
// identity block of k2's extension).
//
// Only the n strands of b cross inside both operands, so the product is
// computed by overlap reduction (see overlap) at O(m1+m2+n) plus one
// multiplication of order n, never at the full order.
//
// mult supplies the braid multiplication of the order-n overlap pair;
// pass Multiply for the sequential combined algorithm.
func Compose(k1, k2 perm.Permutation, m1, m2, n int, mult func(p, q perm.Permutation) perm.Permutation) perm.Permutation {
	if k1.Size() != m1+n || k2.Size() != m2+n {
		panic(fmt.Sprintf("steadyant: Compose got orders %d,%d for m1=%d m2=%d n=%d",
			k1.Size(), k2.Size(), m1, m2, n))
	}
	dst := make([]int32, m1+m2+n)
	var o overlap
	o.reduce(k1.RowToCol(), k2.RowToCol(), m2, n, dst)
	r := mult(perm.FromRowToCol(o.p), perm.FromRowToCol(o.q))
	o.scatter(r.RowToCol(), dst)
	return perm.FromRowToCol(dst)
}

// ComposeInto is Compose over row→column arrays in retained scratch:
// it writes (I_{m2} ⊕ k1) ⊙ (k2 ⊕ I_{m1}) into dst, of length
// m1+m2+n, multiplying the overlap pair in the workspace. dst must not
// alias k1 or k2. After Warm (or one composition) at an overlap order
// n, further calls at or below it perform zero heap allocations.
func (w *Workspace) ComposeInto(k1, k2 []int32, m1, m2, n int, dst []int32) {
	if len(k1) != m1+n || len(k2) != m2+n || len(dst) != m1+m2+n {
		panic(fmt.Sprintf("steadyant: ComposeInto got lengths %d,%d,%d for m1=%d m2=%d n=%d",
			len(k1), len(k2), len(dst), m1, m2, n))
	}
	w.ov.reduce(k1, k2, m2, n, dst)
	w.MultiplyInto(w.ov.p, w.ov.q, w.ov.p)
	w.ov.scatter(w.ov.p, dst)
}

// overlap is the reduction of one composition to its shared strands.
// In the concatenated braid of (I_{m2} ⊕ k1) then (k2 ⊕ I_{m1}), a
// strand entering at row i < m2 crosses nothing in the first operand,
// and a k1 strand leaving at column ≥ m2+n crosses nothing in the
// second. Neither can take part in a double crossing, so the sticky
// product leaves their endpoints where a plain product puts them:
// row i ends at k2[i], and row m2+r ends at m2+k1[r]. Only the n
// strands through the middle columns [m2, m2+n) cross in both operands.
// reduce renumbers them densely — rows in increasing order, columns in
// increasing order, which keeps every crossing — into the order-n pair
// (p, q); scatter maps the product back through rows and cols.
type overlap struct {
	p, q       []int32 // the reduced pair, order n
	rows, cols []int32 // reduced row/column index → full row/column
}

// grow ensures the scratch fits overlap order n.
func (o *overlap) grow(n int) {
	if cap(o.p) >= n {
		return
	}
	buf := make([]int32, 4*n)
	o.p, o.q, o.rows, o.cols = buf[0:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
}

// reduce writes the strands that cross in at most one operand straight
// into dst and fills the overlap pair and its maps. dst, of length
// m1+m2+n, doubles as the column marker array before it is written.
func (o *overlap) reduce(k1, k2 []int32, m2, n int, dst []int32) {
	o.grow(n)
	o.p, o.q, o.rows, o.cols = o.p[:n], o.q[:n], o.rows[:n], o.cols[:n]
	// Columns: the middle rows of k2 exit at n of the columns
	// [0, m2+n); rank them in increasing order.
	marks := dst[:m2+n]
	for c := range marks {
		marks[c] = perm.None
	}
	for t := 0; t < n; t++ {
		marks[k2[m2+t]] = int32(t)
	}
	rank := int32(0)
	for c, t := range marks {
		if t != perm.None {
			o.q[t] = rank
			o.cols[rank] = int32(c)
			rank++
		}
	}
	// Rows: the low strands follow k2 alone, k1 strands exiting past
	// the middle follow k1 alone, the rest enter the overlap in row
	// order.
	copy(dst[:m2], k2[:m2])
	j := 0
	for r, c := range k1 {
		if int(c) >= n {
			dst[m2+r] = int32(m2) + c
			continue
		}
		o.p[j] = c
		o.rows[j] = int32(m2 + r)
		j++
	}
}

// scatter writes the overlap product r (order n) back into dst.
func (o *overlap) scatter(r, dst []int32) {
	for i, c := range r {
		dst[o.rows[i]] = o.cols[c]
	}
}
