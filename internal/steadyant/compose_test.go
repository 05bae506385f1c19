package steadyant

import (
	"fmt"
	"math/rand"
	"testing"

	"semilocal/internal/monge"
	"semilocal/internal/perm"
)

// directSum returns the block-diagonal direct sum a ⊕ b: a acts on the
// first a.Size() indices, b on the rest. It is the test-side reference
// for Compose, which never materializes the sum.
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

// fullProduct is Theorem 3.4's composition at the full order
// m1+m2+n: (I_{m2} ⊕ k1) ⊙ (k2 ⊕ I_{m1}).
func fullProduct(k1, k2 perm.Permutation, m1, m2 int, mult func(p, q perm.Permutation) perm.Permutation) perm.Permutation {
	return mult(directSum(perm.Identity(m2), k1), directSum(k2, perm.Identity(m1)))
}

func TestDirectSum(t *testing.T) {
	a := perm.New([]int32{1, 0})
	b := perm.New([]int32{2, 0, 1})
	s := directSum(a, b)
	want := []int32{1, 0, 4, 2, 3}
	for i, w := range want {
		if s.Col(i) != int(w) {
			t.Fatalf("directSum wrong at %d: %v", i, s.RowToCol())
		}
	}
	// Direct sums multiply blockwise under the sticky product.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 20; trial++ {
		n1, n2 := 1+rng.Intn(10), 1+rng.Intn(10)
		p1, q1 := perm.Random(n1, rng), perm.Random(n1, rng)
		p2, q2 := perm.Random(n2, rng), perm.Random(n2, rng)
		got := Multiply(directSum(p1, p2), directSum(q1, q2))
		want := directSum(Multiply(p1, q1), Multiply(p2, q2))
		if !got.Equal(want) {
			t.Fatalf("(p1⊕p2)⊙(q1⊕q2) ≠ (p1⊙q1)⊕(p2⊙q2) at n1=%d n2=%d", n1, n2)
		}
	}
}

// checkCompose compares both composition entry points against the
// full-order product, and against the O(n³) min-plus oracle when the
// order is small enough.
func checkCompose(t *testing.T, w *Workspace, k1, k2 perm.Permutation, m1, m2, n int) {
	t.Helper()
	want := fullProduct(k1, k2, m1, m2, Multiply)
	if N := m1 + m2 + n; N <= 8 {
		if oracle := fullProduct(k1, k2, m1, m2, monge.MultiplyNaive); !want.Equal(oracle) {
			t.Fatalf("m1=%d m2=%d n=%d: full product disagrees with the min-plus oracle", m1, m2, n)
		}
	}
	if got := Compose(k1, k2, m1, m2, n, Multiply); !got.Equal(want) {
		t.Fatalf("m1=%d m2=%d n=%d: Compose = %v, full product = %v (k1=%v k2=%v)",
			m1, m2, n, got.RowToCol(), want.RowToCol(), k1.RowToCol(), k2.RowToCol())
	}
	dst := make([]int32, m1+m2+n)
	w.ComposeInto(k1.RowToCol(), k2.RowToCol(), m1, m2, n, dst)
	if got := perm.FromRowToCol(dst); !got.Equal(want) {
		t.Fatalf("m1=%d m2=%d n=%d: ComposeInto = %v, full product = %v",
			m1, m2, n, dst, want.RowToCol())
	}
}

// TestComposeMatchesFullProduct pins the overlap reduction to the
// full-order product on arbitrary permutations — not only kernels —
// across the degenerate splits: an empty side, an empty or single-strand
// overlap, and an overlap that is the whole order.
func TestComposeMatchesFullProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var w Workspace // shared across orders: growth and reuse both covered
	// Exhaustive over every split of the small orders.
	for N := 0; N <= 7; N++ {
		for n := 0; n <= N; n++ {
			for m1 := 0; m1 <= N-n; m1++ {
				m2 := N - n - m1
				for trial := 0; trial < 6; trial++ {
					checkCompose(t, &w, perm.Random(m1+n, rng), perm.Random(m2+n, rng), m1, m2, n)
				}
			}
		}
	}
	// Larger random splits, with the edges forced.
	for trial := 0; trial < 200; trial++ {
		m1, m2, n := rng.Intn(60), rng.Intn(60), rng.Intn(60)
		switch trial % 6 {
		case 0:
			m1 = 0
		case 1:
			m2 = 0
		case 2:
			n = 0
		case 3:
			n = 1
		case 4:
			m1, m2 = 0, 0 // n = N
		}
		checkCompose(t, &w, perm.Random(m1+n, rng), perm.Random(m2+n, rng), m1, m2, n)
	}
	// Structured operands: identities and reversals cross everything or
	// nothing.
	for _, n := range []int{1, 5, 33} {
		for _, m := range []int{0, 1, 7} {
			for _, k1 := range []perm.Permutation{perm.Identity(m + n), perm.Reverse(m + n)} {
				for _, k2 := range []perm.Permutation{perm.Identity(n + 3), perm.Reverse(n + 3)} {
					checkCompose(t, &w, k1, k2, m, 3, n)
				}
			}
		}
	}
}

// TestComposeMultipliesAtOverlapOrder pins the cost claim: the caller's
// multiplier sees exactly one product, of the overlap order n.
func TestComposeMultipliesAtOverlapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var orders []int
	mult := func(p, q perm.Permutation) perm.Permutation {
		orders = append(orders, p.Size())
		return Multiply(p, q)
	}
	Compose(perm.Random(40+9, rng), perm.Random(30+9, rng), 40, 30, 9, mult)
	if len(orders) != 1 || orders[0] != 9 {
		t.Fatalf("multiplier saw orders %v, want one product of order 9", orders)
	}
}

func TestComposeIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong ComposeInto lengths accepted")
		}
	}()
	var w Workspace
	w.ComposeInto(make([]int32, 3), make([]int32, 3), 1, 1, 2, make([]int32, 5))
}

// FuzzCompose compares the overlap reduction against the full-order
// product on randomly seeded permutations and splits.
func FuzzCompose(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(3), uint8(4), uint8(5))
	f.Add(int64(42), int64(43), uint8(0), uint8(9), uint8(1))
	f.Add(int64(-7), int64(7), uint8(12), uint8(0), uint8(0))
	f.Add(int64(5), int64(6), uint8(0), uint8(0), uint8(40))
	f.Fuzz(func(t *testing.T, seed1, seed2 int64, m1Raw, m2Raw, nRaw uint8) {
		m1, m2, n := int(m1Raw)%64, int(m2Raw)%64, int(nRaw)%64
		k1 := perm.Random(m1+n, rand.New(rand.NewSource(seed1)))
		k2 := perm.Random(m2+n, rand.New(rand.NewSource(seed2)))
		var w Workspace
		checkCompose(t, &w, k1, k2, m1, m2, n)
	})
}

// BenchmarkCompose times one composition at a streaming shape (a
// 16-strand overlap inside an order-528 kernel: a 16-byte pattern
// against a 512-byte window) and at a balanced one (overlap 4096 of
// 8192), through both entry points.
func BenchmarkCompose(b *testing.B) {
	for _, sh := range []struct{ n, m1, m2 int }{{16, 256, 256}, {4096, 2048, 2048}} {
		rng := rand.New(rand.NewSource(63))
		k1 := perm.Random(sh.m1+sh.n, rng)
		k2 := perm.Random(sh.m2+sh.n, rng)
		N := sh.m1 + sh.m2 + sh.n
		b.Run(fmt.Sprintf("overlap=%d/N=%d/Compose", sh.n, N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Compose(k1, k2, sh.m1, sh.m2, sh.n, Multiply)
			}
		})
		b.Run(fmt.Sprintf("overlap=%d/N=%d/ComposeInto", sh.n, N), func(b *testing.B) {
			var w Workspace
			w.Warm(sh.n)
			dst := make([]int32, N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ComposeInto(k1.RowToCol(), k2.RowToCol(), sh.m1, sh.m2, sh.n, dst)
			}
		})
	}
}
