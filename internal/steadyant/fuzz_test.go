package steadyant

import (
	"math/rand"
	"testing"

	"semilocal/internal/monge"
	"semilocal/internal/perm"
)

// FuzzMultiply compares every steady ant variant against the naive
// min-plus oracle on randomly seeded permutations.
func FuzzMultiply(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(16))
	f.Add(int64(42), int64(43), uint8(255))
	f.Add(int64(-7), int64(7), uint8(1))
	f.Fuzz(func(t *testing.T, seedP, seedQ int64, nRaw uint8) {
		n := int(nRaw)%96 + 1
		p := perm.Random(n, rand.New(rand.NewSource(seedP)))
		q := perm.Random(n, rand.New(rand.NewSource(seedQ)))
		want := monge.MultiplyNaive(p, q)
		for _, v := range []Variant{Base, Precalc, Memory, Combined} {
			if got := MultiplyVariant(p, q, v); !got.Equal(want) {
				t.Fatalf("%v disagrees with oracle at n=%d", v, n)
			}
		}
		if got := MultiplyParallel(p, q, ParallelOptions{SwitchDepth: 3}); !got.Equal(want) {
			t.Fatalf("parallel disagrees with oracle at n=%d", n)
		}
	})
}
