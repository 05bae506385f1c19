package steadyant

import (
	"math/rand"
	"testing"

	"semilocal/internal/perm"
)

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{
		Base:        "base",
		Precalc:     "precalc",
		Memory:      "memory",
		Combined:    "combined",
		Variant(42): "Variant(42)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestMultiplyVariantUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown variant accepted")
		}
	}()
	MultiplyVariant(perm.Identity(2), perm.Identity(2), Variant(42))
}

func TestMultiplyParallelConcurrentCalls(t *testing.T) {
	// Concurrent multiplications fork on the one helper team, as the
	// grid-reduction hybrid's parallel compositions do.
	rng := rand.New(rand.NewSource(28))
	n := 2000
	p1, q1 := perm.Random(n, rng), perm.Random(n, rng)
	p2, q2 := perm.Random(n, rng), perm.Random(n, rng)
	want1, want2 := Multiply(p1, q1), Multiply(p2, q2)
	done := make(chan bool, 2)
	go func() {
		r := MultiplyParallel(p1, q1, ParallelOptions{SwitchDepth: 4})
		done <- r.Equal(want1)
	}()
	go func() {
		r := MultiplyParallel(p2, q2, ParallelOptions{SwitchDepth: 4})
		done <- r.Equal(want2)
	}()
	for i := 0; i < 2; i++ {
		if !<-done {
			t.Fatal("concurrent parallel multiplication disagrees with sequential")
		}
	}
}

func TestComposeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong Compose sizes accepted")
		}
	}()
	Compose(perm.Identity(3), perm.Identity(3), 1, 1, 1, Multiply)
}

func TestComposeEmptyParts(t *testing.T) {
	// Composing with an empty strip (m1 = 0) must be the identity
	// operation on the other kernel.
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(20)
		m2 := 1 + rng.Intn(10)
		k2 := perm.Random(m2+n, rng) // stands in for any kernel-shaped permutation
		empty := perm.Identity(n)    // kernel of ("", b): v-tracks keep their columns
		// For the trivial kernel convention the empty kernel is identity
		// on the n vertical strands.
		got := Compose(empty, k2, 0, m2, n, Multiply)
		if got.Size() != m2+n {
			t.Fatalf("composed order %d, want %d", got.Size(), m2+n)
		}
	}
}
