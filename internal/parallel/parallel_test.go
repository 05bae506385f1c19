package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 100, 1001} {
			hits := make([]int32, n)
			p.For(0, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestPoolForNonZeroBase(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum int64
	p.For(10, 20, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&sum, local)
	})
	if sum != 145 {
		t.Fatalf("sum = %d, want 145", sum)
	}
}

func TestPoolForIsBarrier(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Sequential dependency across iterations of an outer loop: each round
	// must fully complete before the next reads its results.
	buf := make([]int32, 64)
	for round := 0; round < 50; round++ {
		p.For(0, len(buf), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i]++
			}
		})
		for i, v := range buf {
			if v != int32(round+1) {
				t.Fatalf("round %d: buf[%d] = %d", round, i, v)
			}
		}
	}
}

func TestPoolEmptyAndNegativeRange(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	called := false
	p.For(5, 5, func(lo, hi int) { called = true })
	p.For(5, 3, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called on empty range")
	}
}

func TestNewPoolClampsWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want 1", p.Size())
	}
}

func TestPoolDoRunsBoth(t *testing.T) {
	for _, n := range []int{0, 1, 4} {
		p := NewPool(n)
		var a, b int32
		p.Do(func() { atomic.AddInt32(&a, 1) }, func() { atomic.AddInt32(&b, 1) })
		if a != 1 || b != 1 {
			t.Fatalf("width=%d: a=%d b=%d", n, a, b)
		}
	}
}

func TestPoolDoWidthOneIsSequential(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		p := NewPool(n)
		order := []int{}
		p.Do(func() { order = append(order, 1) }, func() { order = append(order, 2) })
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("NewPool(%d): order = %v", n, order)
		}
	}
}

func TestPoolDoRecursive(t *testing.T) {
	p := NewPool(3)
	var total int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			atomic.AddInt64(&total, 1)
			return
		}
		p.Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(10)
	if total != 1024 {
		t.Fatalf("total = %d, want 1024", total)
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	f()
}

func TestPoolForAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	mustPanic(t, "parallel: Pool.For called after Close", func() {
		p.For(0, 10, func(lo, hi int) {})
	})
	// The single-span fast path must fail just as loudly.
	mustPanic(t, "parallel: Pool.For called after Close", func() {
		p.For(0, 1, func(lo, hi int) {})
	})
}

func TestPoolDoubleClosePanics(t *testing.T) {
	p := NewPool(3)
	p.Close()
	mustPanic(t, "parallel: Pool closed twice", p.Close)
}

func TestPoolDoAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	mustPanic(t, "parallel: Pool.Do called after Close", func() {
		p.Do(func() {}, func() {})
	})
}

func TestNewPoolClampsNegativeWorkers(t *testing.T) {
	for _, n := range []int{-100, -1, 0} {
		p := NewPool(n)
		if p.Size() != 1 {
			t.Fatalf("NewPool(%d).Size() = %d, want 1", n, p.Size())
		}
		ran := false
		p.For(0, 4, func(lo, hi int) { ran = ran || (lo == 0 && hi == 4) })
		if !ran {
			t.Fatalf("NewPool(%d) did not run the full range inline", n)
		}
		p.Close()
	}
}

func TestPoolEach(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers)
		const n = 100
		seen := make([]int32, n)
		p.Each(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		p.Each(0, func(i int) { t.Error("Each(0) invoked fn") })
		p.Close()
	}
}

// TestPoolNestedFor: a worker's fn may call For on the same pool. The
// inner loops degrade to inline execution where workers are busy
// instead of deadlocking, and every index of every level still runs
// exactly once.
func TestPoolNestedFor(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		const outer, inner = 8, 64
		hits := make([][]int32, outer)
		for i := range hits {
			hits[i] = make([]int32, inner)
		}
		p.For(0, outer, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := hits[i]
				p.For(0, inner, func(jlo, jhi int) {
					for j := jlo; j < jhi; j++ {
						atomic.AddInt32(&row[j], 1)
					}
				})
			}
		})
		for i := range hits {
			for j, h := range hits[i] {
				if h != 1 {
					t.Fatalf("workers=%d: hits[%d][%d] = %d, want 1", workers, i, j, h)
				}
			}
		}
		p.Close()
	}
}

// TestPoolNestedForDeepRecursion pushes nesting past the worker count:
// a recursive For tree four levels deep must complete with every leaf
// visited once, whatever mixture of inline and worker execution the
// scheduler produces.
func TestPoolNestedForDeepRecursion(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var leaves int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			atomic.AddInt64(&leaves, 1)
			return
		}
		p.For(0, 2, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rec(depth - 1)
			}
		})
	}
	rec(4)
	if leaves != 16 {
		t.Fatalf("leaves = %d, want 16", leaves)
	}
}

// TestPoolForPanicPropagates: a panic inside a span must surface on the
// caller of For with its original value — not crash the process from a
// worker goroutine, not hang the barrier — and the pool must stay
// usable afterwards.
func TestPoolForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 3; round++ {
		got := func() (r any) {
			defer func() { r = recover() }()
			p.For(0, 16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == 11 {
						panic("boom 11")
					}
				}
			})
			return nil
		}()
		if got != "boom 11" {
			t.Fatalf("round %d: recovered %v, want \"boom 11\"", round, got)
		}
		// The barrier stayed balanced: the pool still works.
		var n int32
		p.For(0, 8, func(lo, hi int) { atomic.AddInt32(&n, int32(hi-lo)) })
		if n != 8 {
			t.Fatalf("round %d: pool broken after panic: covered %d of 8", round, n)
		}
	}
}

// TestPoolForInlinePanicPropagates: the single-worker fast path and the
// inline-fallback path raise panics on the caller too.
func TestPoolForInlinePanicPropagates(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	got := func() (r any) {
		defer func() { r = recover() }()
		p.For(0, 4, func(lo, hi int) { panic("inline boom") })
		return nil
	}()
	if got != "inline boom" {
		t.Fatalf("recovered %v, want \"inline boom\"", got)
	}
}

// TestPoolDoPanicPropagates: a panic in either branch — handed off or
// inline — must reach the caller of Do, and the fork must stay balanced
// either way (the pool keeps working).
func TestPoolDoPanicPropagates(t *testing.T) {
	p := NewPool(2)
	for _, branch := range []string{"left", "right"} {
		got := func() (r any) {
			defer func() { r = recover() }()
			p.Do(
				func() {
					if branch == "left" {
						panic("left boom")
					}
				},
				func() {
					if branch == "right" {
						panic("right boom")
					}
				},
			)
			return nil
		}()
		if got != branch+" boom" {
			t.Fatalf("branch %s: recovered %v", branch, got)
		}
		// Balanced: a follow-up Do still runs both branches.
		var a, b int32
		p.Do(func() { atomic.AddInt32(&a, 1) }, func() { atomic.AddInt32(&b, 1) })
		if a != 1 || b != 1 {
			t.Fatalf("branch %s: pool broken after panic: a=%d b=%d", branch, a, b)
		}
	}
}

// TestPoolDoConcurrencyBound: recursive fork-join trees run by several
// callers at once can have at most teamSize+callers branches executing
// leaf work at the same instant (every caller plus every helper). The
// peak of an entered-minus-exited gauge over every leaf pins the bound.
func TestPoolDoConcurrencyBound(t *testing.T) {
	const callers = 2
	p := NewPool(8)
	var active, peak, total int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			cur := atomic.AddInt64(&active, 1)
			for {
				pk := atomic.LoadInt64(&peak)
				if cur <= pk || atomic.CompareAndSwapInt64(&peak, pk, cur) {
					break
				}
			}
			time.Sleep(20 * time.Microsecond)
			atomic.AddInt64(&total, 1)
			atomic.AddInt64(&active, -1)
			return
		}
		p.Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec(8)
		}()
	}
	wg.Wait()
	if total != callers*256 {
		t.Fatalf("total = %d, want %d", total, callers*256)
	}
	if peak > int64(teamSize+callers) {
		t.Fatalf("peak concurrency %d exceeds team size + callers = %d", peak, teamSize+callers)
	}
}

// TestPoolForRunsSpansConcurrently: the spans of one For run at the same
// time, also on a freshly made Pool. The two spans of For(0, 2) meet at
// a rendezvous that neither can pass alone; run one after the other,
// the first would wait out the timeout.
func TestPoolForRunsSpansConcurrently(t *testing.T) {
	for i := 0; i < 20; i++ {
		p := NewPool(2)
		var arrived sync.WaitGroup
		arrived.Add(2)
		met := make(chan struct{})
		go func() {
			arrived.Wait()
			close(met)
		}()
		var timedOut atomic.Bool
		p.For(0, 2, func(lo, hi int) {
			arrived.Done()
			select {
			case <-met:
			case <-time.After(2 * time.Second):
				timedOut.Store(true)
			}
		})
		p.Close()
		if timedOut.Load() {
			t.Fatalf("pool %d: the two spans of For(0, 2) did not meet within 2s", i)
		}
	}
}

// TestPoolEachEmptyAndNested: Each with zero items is a no-op, and Each
// nested inside a worker (the engine's batch fan-out running inside
// another batch) completes like nested For.
func TestPoolEachEmptyAndNested(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Each(0, func(i int) { t.Error("Each(0) invoked fn") })
	var n int32
	p.Each(4, func(i int) {
		p.Each(3, func(j int) { atomic.AddInt32(&n, 1) })
	})
	if n != 12 {
		t.Fatalf("nested Each covered %d of 12", n)
	}
}
