package stream

import (
	"math/rand"
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/perm"
	"semilocal/internal/steadyant"
)

// directSum returns the block-diagonal direct sum a ⊕ b: a acts on the
// first a.Size() indices, b on the rest.
func directSum(a, b perm.Permutation) perm.Permutation {
	na, nb := a.Size(), b.Size()
	out := make([]int32, na+nb)
	for i := 0; i < na; i++ {
		out[i] = int32(a.Col(i))
	}
	for i := 0; i < nb; i++ {
		out[na+i] = int32(na + b.Col(i))
	}
	return perm.FromRowToCol(out)
}

// fullProductB is the b-axis composition at the full order m+n1+n2,
// straight from Theorems 3.4 and 3.5 with the direct sums materialized:
//
//	rot180( (I_{n2} ⊕ rot180(k1)) ⊙ (rot180(k2) ⊕ I_{n1}) )
func fullProductB(k1, k2 perm.Permutation, n1, n2 int) perm.Permutation {
	left := directSum(perm.Identity(n2), k1.Rotate180())
	right := directSum(k2.Rotate180(), perm.Identity(n1))
	return steadyant.Multiply(left, right).Rotate180()
}

// TestComposerMatchesReference pins the composition against a direct
// solve of the concatenated text — the kernel it must reproduce bit for
// bit — on real kernels of random string pieces, and against the
// full-order direct-sum product on arbitrary permutations, which no
// solve can produce.
func TestComposerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randText := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(3))
		}
		return b
	}
	var c composer
	for trial := 0; trial < 60; trial++ {
		m := rng.Intn(10)
		n1 := 1 + rng.Intn(9)
		n2 := 1 + rng.Intn(9)
		a, b1, b2 := randText(m), randText(n1), randText(n2)
		s1, err := core.Solve(a, b1, DefaultSolveConfig())
		if err != nil {
			t.Fatal(err)
		}
		s2, err := core.Solve(a, b2, DefaultSolveConfig())
		if err != nil {
			t.Fatal(err)
		}
		full, err := core.Solve(a, append(append([]byte(nil), b1...), b2...), DefaultSolveConfig())
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int32, m+n1+n2)
		c.composeB(s1.Permutation().RowToCol(), s2.Permutation().RowToCol(), m, n1, n2, dst)
		if !perm.FromRowToCol(dst).Equal(full.Permutation()) {
			t.Fatalf("trial %d (m=%d n1=%d n2=%d): composition differs from direct solve of b1·b2",
				trial, m, n1, n2)
		}
	}
	for trial := 0; trial < 100; trial++ {
		m, n1, n2 := rng.Intn(40), rng.Intn(40), rng.Intn(40)
		k1, k2 := perm.Random(m+n1, rng), perm.Random(m+n2, rng)
		dst := make([]int32, m+n1+n2)
		c.composeB(k1.RowToCol(), k2.RowToCol(), m, n1, n2, dst)
		if !perm.FromRowToCol(dst).Equal(fullProductB(k1, k2, n1, n2)) {
			t.Fatalf("random trial %d (m=%d n1=%d n2=%d): composition differs from the full product",
				trial, m, n1, n2)
		}
	}
}

// TestComposerLengthMismatch pins the panic contract.
func TestComposerLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	var c composer
	c.composeB(make([]int32, 3), make([]int32, 3), 2, 1, 2, make([]int32, 5))
}
