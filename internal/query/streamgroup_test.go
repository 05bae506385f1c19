package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/oracle"
	"semilocal/internal/stream"
)

// forEachPatternSet runs f as one subtest per pattern set, named by the
// set's size. Every engine-served stream is a group, so each group test
// also pins the single-pattern stream (P=1).
func forEachPatternSet(t *testing.T, f func(t *testing.T, patterns [][]byte), sets ...[]string) {
	t.Helper()
	for _, set := range sets {
		patterns := make([][]byte, len(set))
		for i, p := range set {
			patterns[i] = []byte(p)
		}
		t.Run(fmt.Sprintf("P=%d", len(set)), func(t *testing.T) { f(t, patterns) })
	}
}

// TestStreamGroupWrapperMatchesOracle streams chunks through the
// engine's group wrapper and answers queries for every pattern against
// the shared window, cross-checked with the quadratic DP oracle and a
// from-scratch solve.
func TestStreamGroupWrapperMatchesOracle(t *testing.T) {
	forEachPatternSet(t, func(t *testing.T, patterns [][]byte) {
		e := NewEngine(Options{})
		defer e.Close()
		sg, err := e.OpenStreamGroup(patterns)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var window []byte
		for _, c := range []string{"gatt", "a", "cacatg", "attaca", "gg"} {
			if err := sg.Append(ctx, []byte(c)); err != nil {
				t.Fatalf("append %q: %v", c, err)
			}
			window = append(window, c...)
			for i := range patterns {
				if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], window); got != want {
					t.Fatalf("after %q pattern %d: score %d, oracle says %d", c, i, got, want)
				}
				scratch, err := core.Solve(patterns[i], window, stream.DefaultSolveConfig())
				if err != nil {
					t.Fatal(err)
				}
				if !sg.Session(i).Kernel().Permutation().Equal(scratch.Permutation()) {
					t.Fatalf("after %q pattern %d: kernel differs from from-scratch solve", c, i)
				}
			}
		}
		if got, want := sg.Query(0, Request{Kind: StringSubstring, From: 3, To: 11}).Score,
			oracle.Score(patterns[0], window[3:11]); got != want {
			t.Fatalf("string-substring: %d, oracle says %d", got, want)
		}
		res := sg.Query(0, Request{Kind: BestWindow, Width: 7})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if want := oracle.Score(patterns[0], window[res.From:res.From+7]); res.Score != want {
			t.Fatalf("best-window score %d, oracle says %d at offset %d", res.Score, want, res.From)
		}
		if err := sg.Slide(ctx, 2); err != nil {
			t.Fatal(err)
		}
		window = window[len("gatt")+len("a"):]
		for i := range patterns {
			if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], window); got != want {
				t.Fatalf("after slide pattern %d: score %d, oracle says %d", i, got, want)
			}
		}
		// Validation errors surface as Result.Err, never a panic.
		last := len(patterns) - 1
		if res := sg.Query(last, Request{Kind: StringSubstring, From: 0, To: sg.Window() + 1}); res.Err == nil {
			t.Fatal("out-of-range query must report an error")
		}
		stats := e.Stats()
		if stats["streams_opened"] != 1 || stats["stream_appends"] != 5 || stats["stream_slides"] != 1 {
			t.Fatalf("stream counters off: %v", stats)
		}
	}, []string{"gattaca", "tac", "gattaca", "gg"}, []string{"gattaca"})
}

// TestStreamGroupQueryPatternIndex pins Query's promise of errors
// instead of panics for the pattern index too: an index outside
// [0, Patterns()) fails the request, and the group keeps answering.
func TestStreamGroupQueryPatternIndex(t *testing.T) {
	forEachPatternSet(t, func(t *testing.T, patterns [][]byte) {
		e := NewEngine(Options{})
		defer e.Close()
		sg, err := e.OpenStreamGroup(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if err := sg.Append(context.Background(), []byte("abba")); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{-1, len(patterns), len(patterns) + 7} {
			if res := sg.Query(i, Request{Kind: Score}); res.Err == nil {
				t.Fatalf("pattern index %d of %d must report an error", i, len(patterns))
			}
		}
		if got, want := sg.Query(0, Request{Kind: Score}).Score, oracle.Score(patterns[0], []byte("abba")); got != want {
			t.Fatalf("in-range query after rejected indices: %d, oracle says %d", got, want)
		}
	}, []string{"ab", "ba"}, []string{"ab"})
}

// TestStreamGroupSessionCachedPerGeneration pins the per-pattern
// per-generation session cache.
func TestStreamGroupSessionCachedPerGeneration(t *testing.T) {
	forEachPatternSet(t, func(t *testing.T, patterns [][]byte) {
		e := NewEngine(Options{})
		defer e.Close()
		sg, err := e.OpenStreamGroup(patterns)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := sg.Append(ctx, []byte("cachemiss")); err != nil {
			t.Fatal(err)
		}
		if s1, s2 := sg.Session(0), sg.Session(0); s1 != s2 {
			t.Fatal("same generation must reuse the cached session")
		}
		for i := 1; i < len(patterns); i++ {
			if sg.Session(0) == sg.Session(i) {
				t.Fatalf("patterns 0 and %d must prepare different sessions", i)
			}
		}
		last := len(patterns) - 1
		s1 := sg.Session(last)
		if err := sg.Append(ctx, []byte("hit")); err != nil {
			t.Fatal(err)
		}
		if sg.Session(last) == s1 {
			t.Fatal("a new generation must build a new session")
		}
	}, []string{"cache", "miss"}, []string{"cache"})
}

// TestStreamGroupRetryAndDeadline pins the mutation hardening on a
// multi-pattern group: transient faults retry within budget (all spines
// advance together), an exhausted budget surfaces the typed error with
// every spine unmutated, a cancelled context fails before any state
// changes, and an engine deadline shorter than the retry backoff ends
// the retry with DeadlineExceeded instead of blocking.
func TestStreamGroupRetryAndDeadline(t *testing.T) {
	patterns := [][]byte{[]byte("retry"), []byte("try")}
	checkAppendRetriesTransient(t, patterns)
	checkAppendRetryExhausted(t, patterns)
	checkMutationDeadline(t, patterns)
}

// TestStreamAppendRetriesTransient wires a budgeted error rule into the
// stream point of a single-pattern stream (a group of one): the retry
// policy absorbs the injected failures and the append succeeds, counted
// in requests_retried.
func TestStreamAppendRetriesTransient(t *testing.T) {
	checkAppendRetriesTransient(t, [][]byte{[]byte("retry")})
}

// TestStreamAppendRetryExhausted drains the retry budget of a
// single-pattern stream against an always-on fault: the typed injected
// error must surface, wrapped in the stream-mutation retry message, with
// the stream unmutated.
func TestStreamAppendRetryExhausted(t *testing.T) {
	checkAppendRetryExhausted(t, [][]byte{[]byte("doom")})
}

// TestStreamMutationDeadline pins context semantics on a single-pattern
// stream: a cancelled context fails the mutation before any state
// changes, and the engine's deadline bounds retry backoff.
func TestStreamMutationDeadline(t *testing.T) {
	checkMutationDeadline(t, [][]byte{[]byte("ctx")})
}

// checkAppendRetriesTransient: two injected faults under a 4-attempt
// policy are retried away, and every pattern answers as the oracle does.
func checkAppendRetriesTransient(t *testing.T, patterns [][]byte) {
	t.Helper()
	inj, err := chaos.New(chaos.Config{
		Seed:  7,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000, MaxCount: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Chaos: inj,
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond},
	})
	defer e.Close()
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Append(context.Background(), []byte("chunk")); err != nil {
		t.Fatalf("append should survive 2 injected faults under a 4-attempt policy: %v", err)
	}
	for i := range patterns {
		if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], []byte("chunk")); got != want {
			t.Fatalf("post-retry pattern %d score %d, oracle says %d", i, got, want)
		}
	}
	if retried := e.Stats()["requests_retried"]; retried != 2 {
		t.Fatalf("requests_retried = %d, want 2", retried)
	}
	if fired := inj.Fired(); fired != 2 {
		t.Fatalf("injector fired %d times, want 2", fired)
	}
}

// checkAppendRetryExhausted: an always-on fault drains a 2-attempt
// budget; the typed error surfaces and the whole group stays unmutated.
func checkAppendRetryExhausted(t *testing.T, patterns [][]byte) {
	t.Helper()
	inj, err := chaos.New(chaos.Config{
		Seed:  7,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Chaos: inj,
		Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond},
	})
	defer e.Close()
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	gen := sg.Generation()
	err = sg.Append(context.Background(), []byte("chunk"))
	if err == nil {
		t.Fatal("append must fail once the retry budget drains")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error must wrap the injected sentinel: %v", err)
	}
	if !strings.Contains(err.Error(), "stream mutation attempts failed") {
		t.Fatalf("error must carry the retry context: %v", err)
	}
	if sg.Generation() != gen {
		t.Fatal("a failed append must leave the group on its previous generation")
	}
	for i := range patterns {
		if sg.State(i).Gen != gen {
			t.Fatalf("a failed append must leave spine %d on its previous generation", i)
		}
	}
}

// checkMutationDeadline: a cancelled context fails before any state
// changes, and an engine deadline shorter than the backoff turns a
// transient failure into DeadlineExceeded instead of a blocked retry.
func checkMutationDeadline(t *testing.T, patterns [][]byte) {
	t.Helper()
	e := NewEngine(Options{})
	defer e.Close()
	sg, err := e.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sg.Append(ctx, []byte("late")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled append: got %v, want context.Canceled", err)
	}
	if sg.Generation() != 0 || sg.Window() != 0 {
		t.Fatal("cancelled append must not mutate the group")
	}

	inj, err := chaos.New(chaos.Config{
		Seed:  3,
		Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(Options{
		Chaos:    inj,
		Retry:    RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Minute},
		Deadline: 5 * time.Millisecond,
	})
	defer e2.Close()
	sg2, err := e2.OpenStreamGroup(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg2.Append(context.Background(), []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline during backoff: got %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamGroupClosedEngine pins closed-engine semantics: opening and
// mutating fail with ErrEngineClosed, while already-published
// generations stay queryable for every pattern.
func TestStreamGroupClosedEngine(t *testing.T) {
	forEachPatternSet(t, func(t *testing.T, patterns [][]byte) {
		e := NewEngine(Options{})
		sg, err := e.OpenStreamGroup(patterns)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := sg.Append(ctx, []byte("before")); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if err := sg.Append(ctx, []byte("after")); !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("append on closed engine: got %v, want ErrEngineClosed", err)
		}
		if err := sg.Slide(ctx, 1); !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("slide on closed engine: got %v, want ErrEngineClosed", err)
		}
		if _, err := e.OpenStreamGroup(patterns); !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("open on closed engine: got %v, want ErrEngineClosed", err)
		}
		for i := range patterns {
			if got, want := sg.Query(i, Request{Kind: Score}).Score, oracle.Score(patterns[i], []byte("before")); got != want {
				t.Fatalf("published generation must stay queryable after close: pattern %d %d vs %d", i, got, want)
			}
		}
	}, []string{"closing", "open"}, []string{"closing"})
}

// TestStreamGroupChaosMetamorphicThroughWrapper is the serving-layer
// metamorphic property: under probabilistic stream faults with retries
// enabled, every group mutation eventually lands and every pattern's
// final kernel is bit-identical to a fault-free independent session fed
// the same chunks.
func TestStreamGroupChaosMetamorphicThroughWrapper(t *testing.T) {
	forEachPatternSet(t, func(t *testing.T, patterns [][]byte) {
		inj, err := chaos.New(chaos.Config{
			Seed:  99,
			Rules: []chaos.Rule{{Point: chaos.PointStream, Fault: chaos.FaultError, PerMille: 300}},
		})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{
			Chaos: inj,
			Retry: RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Microsecond},
		})
		defer e.Close()
		sg, err := e.OpenStreamGroup(patterns)
		if err != nil {
			t.Fatal(err)
		}
		clean := make([]*stream.Session, len(patterns))
		for i := range clean {
			if clean[i], err = stream.New(patterns[i], stream.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		chunks := []string{"meta", "morphic_", "group", "s", "_under", "_chaos", "!"}
		for _, c := range chunks {
			if err := sg.Append(ctx, []byte(c)); err != nil {
				t.Fatalf("append %q: %v (8-attempt budget at 30%% fault rate)", c, err)
			}
			for i := range clean {
				if err := clean[i].Append([]byte(c)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sg.Slide(ctx, 3); err != nil {
			t.Fatal(err)
		}
		for i := range clean {
			if err := clean[i].Slide(3); err != nil {
				t.Fatal(err)
			}
			if !sg.Session(i).Kernel().Permutation().Equal(clean[i].Kernel().Permutation()) {
				t.Fatalf("pattern %d: faulted group must publish kernels bit-identical to the fault-free run", i)
			}
			if sg.State(i).Gen != clean[i].Generation() {
				t.Fatalf("pattern %d generation drift: faulted %d vs clean %d", i, sg.State(i).Gen, clean[i].Generation())
			}
		}
		if sg.LeafSolves()+sg.LeafShares() == 0 {
			t.Fatal("group must account its leaf solves")
		}
	}, []string{"metamorphic", "meta", "morph"}, []string{"metamorphic"})
}
