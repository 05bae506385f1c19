//go:build !race

package steadyant

import (
	"math/rand"
	"testing"

	"semilocal/internal/perm"
)

// TestWorkspaceZeroAllocsSteadyState pins the contract streaming
// sessions rely on: once a workspace has grown to an order, repeated
// multiplications at that order (and below) allocate nothing.
func TestWorkspaceZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 300
	p := perm.Random(n, rng).RowToCol()
	q := perm.Random(n, rng).RowToCol()
	dst := make([]int32, n)
	var w Workspace
	w.Warm(n)
	if allocs := testing.AllocsPerRun(50, func() {
		w.MultiplyInto(p, q, dst)
	}); allocs != 0 {
		t.Fatalf("warmed workspace multiplication allocates %.1f times per run, want 0", allocs)
	}
	// A smaller order on the same workspace must also be free.
	small := perm.Random(64, rng).RowToCol()
	sdst := make([]int32, 64)
	if allocs := testing.AllocsPerRun(50, func() {
		w.MultiplyInto(small, small, sdst)
	}); allocs != 0 {
		t.Fatalf("smaller-order multiplication allocates %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceComposeZeroAllocs pins the same contract for the
// composition entry point streaming spines use: after Warm at an
// overlap order, compositions at that overlap (and below), with any
// number of pass-through strands, allocate nothing.
func TestWorkspaceComposeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const m1, m2, n = 200, 300, 64
	k1 := perm.Random(m1+n, rng).RowToCol()
	k2 := perm.Random(m2+n, rng).RowToCol()
	dst := make([]int32, m1+m2+n)
	var w Workspace
	w.Warm(n)
	if allocs := testing.AllocsPerRun(50, func() {
		w.ComposeInto(k1, k2, m1, m2, n, dst)
	}); allocs != 0 {
		t.Fatalf("warmed workspace composition allocates %.1f times per run, want 0", allocs)
	}
	s1 := perm.Random(10+16, rng).RowToCol()
	s2 := perm.Random(5+16, rng).RowToCol()
	sdst := make([]int32, 10+5+16)
	if allocs := testing.AllocsPerRun(50, func() {
		w.ComposeInto(s1, s2, 10, 5, 16, sdst)
	}); allocs != 0 {
		t.Fatalf("smaller-overlap composition allocates %.1f times per run, want 0", allocs)
	}
}
