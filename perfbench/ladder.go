package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"semilocal"
	"semilocal/internal/banded"
	"semilocal/internal/bitlcs"
	"semilocal/internal/combing"
	"semilocal/internal/core"
	"semilocal/internal/hybrid"
	"semilocal/internal/parallel"
	"semilocal/internal/query"
	"semilocal/internal/server"
	"semilocal/internal/steadyant"
	"semilocal/internal/store"
	"semilocal/internal/stream"
)

// ladder times calls into each layer's public functions on the run's
// seeded inputs, one layer per step, with a span around every call (or
// around every batch of calls too short to time one by one), checks
// their answers, and stores the per-layer metrics in vals. It returns
// the number of calls made.
func ladder(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	var calls int64
	steps := []func(*runCtx, *tracer, map[string]float64) (int64, error){
		ladderSolvers, ladderSessions, ladderEngine, ladderServer, ladderStore, ladderStream,
	}
	for _, step := range steps {
		n, err := step(c, tr, vals)
		if err != nil {
			return calls, err
		}
		calls += n
	}
	return calls, nil
}

// timed runs f reps times under a span named name and returns the
// per-call durations.
func timed(tr *tracer, name string, reps int, f func(i int)) []time.Duration {
	out := make([]time.Duration, reps)
	for i := range out {
		sp := tr.start(name, 0, 0)
		t0 := time.Now()
		f(i)
		out[i] = time.Since(t0)
		sp.end()
	}
	return out
}

// ladderSolvers: branchless anti-diagonal combing on one worker,
// GridReduction, steady-ant multiplication of two order-8192 kernels,
// the bit-parallel block loop and the banded BFS, on the offline
// inputs.
func ladderSolvers(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	pairs := solvePairs(c.seed)[:2] // one normal-σ and one genome-like pair
	var comb []float64
	var combed [2][]int32
	for rep := 0; rep < 3; rep++ {
		for i, p := range pairs {
			var perm []int32
			d := timed(tr, "combing.antidiag", 1, func(int) {
				perm = combing.Antidiag(p.a, p.b, combing.Options{Workers: 1, Branchless: true}).RowToCol()
			})[0]
			comb = append(comb, float64(d)/float64(len(p.a)*len(p.b)))
			combed[i] = perm
		}
	}
	vals["combing.ns_per_cell"] = median(comb)

	grid := timed(tr, "hybrid.grid", 5, func(int) {
		got := hybrid.GridReduction(pairs[0].a, pairs[0].b, hybrid.GridOptions{Workers: c.workers, Branchless: true})
		if !slices.Equal(got.RowToCol(), combed[0]) {
			c.wrongf("ladder: GridReduction kernel differs from anti-diagonal combing")
		}
	})
	vals["hybrid.grid_ms"] = ms(summarize(grid).p50)

	var kernels [2]*core.Kernel
	for i, p := range pairs {
		sp := tr.start("core.solve", 0, 0)
		k, err := core.Solve(p.a, p.b, solveConfig(c.workers))
		sp.end()
		if err != nil {
			return 0, err
		}
		kernels[i] = k
	}
	p, q := kernels[0].Permutation(), kernels[1].Permutation()
	mult := timed(tr, "steadyant.multiply", 9, func(int) { steadyant.Multiply(p, q) })
	vals["steadyant.multiply_ms"] = ms(summarize(mult).p50)
	if !slices.Equal(steadyant.Multiply(p, q).RowToCol(), steadyant.MultiplyVariant(p, q, steadyant.Base).RowToCol()) {
		c.wrongf("ladder: steady-ant product differs from the unoptimized variant")
	}

	bin := binaryPair(c.seed)
	var score int
	bits := timed(tr, "bitlcs.score", 3, func(int) {
		score = bitlcs.Score(bin.a, bin.b, bitlcs.FormulaOpt, bitlcs.Options{Workers: c.workers})
	})
	vals["bitlcs.score_ms"] = ms(summarize(bits).p50)
	if want := c.memo("binary/old", func() int {
		return bitlcs.Score(bin.a, bin.b, bitlcs.Old, bitlcs.Options{})
	}); score != want {
		c.wrongf("ladder: bitlcs.Score %d, original formula %d", score, want)
	}
	checkBinarySample(c, bin)

	bp := bandedPairs(c.seed)[0]
	var dist int
	var ok bool
	band := timed(tr, "banded.distance", 3, func(int) {
		dist, ok = banded.DistanceBounded(bp.a, bp.b, banded.AutoMaxK(len(bp.a), len(bp.b)))
	})
	vals["banded.distance_ms"] = ms(summarize(band).p50)
	if !ok || dist > bandedEdits {
		c.wrongf("ladder: banded distance %d (ok=%v) exceeds %d planted edits", dist, ok, bandedEdits)
	}
	return int64(len(comb) + len(grid) + 2 + len(mult) + len(bits) + len(band)), nil
}

// hotSetKernels solves the serve-hot set directly.
func hotSetKernels(c *runCtx) ([]pair, []*core.Kernel, error) {
	hot := servePairs(c.seed, hotPairs)
	ks := make([]*core.Kernel, hotPairs)
	for i := range hot {
		k, err := core.Solve(hot[i].a, hot[i].b, solveConfig(c.workers))
		if err != nil {
			return nil, nil, err
		}
		ks[i] = k
	}
	return hot, ks, nil
}

// ladderSessions: dominance preparation (query.NewSession on a solved,
// unprepared kernel) and every Session query kind on the hot set.
func ladderSessions(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	hot, ks, err := hotSetKernels(c)
	if err != nil {
		return 0, err
	}
	sessions := make([]*query.Session, len(ks))
	var prep []time.Duration
	for rep := 0; rep < 4; rep++ {
		d := timed(tr, "dominance.prepare", len(ks), func(i int) {
			sessions[i] = query.NewSession(core.NewKernel(ks[i].Permutation(), ks[i].M(), ks[i].N()))
		})
		prep = append(prep, d...)
	}
	vals["dominance.prepare_us"] = us(summarize(prep).p50)

	const perKind = 4096
	calls := int64(len(prep))
	for ki, name := range sessionKinds {
		kind, err := query.ParseKind(name)
		if err != nil {
			return 0, err
		}
		args := make([]askRec, perKind)
		g := newPRNG(mix(c.seed, labMix, 1<<20+uint64(ki)))
		for i := range args {
			s := sessions[i%len(sessions)]
			m, n := s.M(), s.N()
			a := &args[i]
			switch kind {
			case query.StringSubstring:
				a.from, a.to = orderedI32(g.intn(n+1), g.intn(n+1))
			case query.SubstringString:
				a.from, a.to = orderedI32(g.intn(m+1), g.intn(m+1))
			case query.SuffixPrefix, query.PrefixSuffix:
				a.from, a.to = int32(g.intn(m+1)), int32(g.intn(n+1))
			case query.Windows, query.BestWindow:
				a.width = int32(n/4 + g.intn(n/2))
			}
		}
		got := make([]int, perKind)
		sp := tr.start("query.session."+name, 0, 0)
		t0 := time.Now()
		for i, a := range args {
			got[i], _ = expect(sessions[i%len(sessions)], kind, int(a.from), int(a.to), int(a.width))
		}
		vals["query.session_ns."+name] = float64(time.Since(t0)) / perKind
		sp.end()
		calls += perKind
		// Check the first answers of each kind against the DP.
		for i := 0; i < 2; i++ {
			p := hot[i%len(hot)]
			a := args[i]
			if want := dpAnswer(p, kind, int(a.from), int(a.to), int(a.width)); got[i] != want {
				c.wrongf("ladder: session %s(%d,%d,w=%d) = %d, DP %d", name, a.from, a.to, a.width, got[i], want)
			}
		}
	}
	return calls, nil
}

// dpAnswer is expect's score computed by the linear-space DP.
func dpAnswer(p pair, kind query.Kind, from, to, width int) int {
	switch kind {
	case query.StringSubstring:
		return semilocal.LCS(p.a, p.b[from:to])
	case query.SubstringString:
		return semilocal.LCS(p.a[from:to], p.b)
	case query.SuffixPrefix:
		return semilocal.LCS(p.a[from:], p.b[:to])
	case query.PrefixSuffix:
		return semilocal.LCS(p.a[:from], p.b[to:])
	case query.Windows, query.BestWindow:
		sum, best := 0, -1
		for l := 0; l+width <= len(p.b); l++ {
			v := semilocal.LCS(p.a, p.b[l:l+width])
			sum += v
			best = max(best, v)
		}
		if kind == query.Windows {
			return sum
		}
		return best
	}
	return semilocal.LCS(p.a, p.b)
}

// ladderEngine: Engine.Acquire hits and misses, and the kept serve
// calls replayed on Engine.BatchSolve with the serving options.
func ladderEngine(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	ctx := context.Background()
	eng := query.NewEngine(engineOptions(c.workers, hotKernels))
	defer eng.Close()
	const misses = 48
	miss := timed(tr, "query.acquire_miss", misses, func(i int) {
		p := freshPair(c.seed, 1<<50+int64(i))
		if _, err := eng.Acquire(ctx, p.a, p.b); err != nil {
			c.wrongf("ladder: acquire miss: %v", err)
		}
	})
	vals["query.acquire_miss_ms"] = ms(summarize(miss).p50)

	hot := servePairs(c.seed, hotPairs)
	for i := range hot {
		if _, err := eng.Acquire(ctx, hot[i].a, hot[i].b); err != nil {
			return 0, err
		}
	}
	const hits = 8192
	var hitDur []time.Duration
	sp := tr.start("query.acquire_hit", 0, 0)
	for i := 0; i < hits; i++ {
		p := hot[i%len(hot)]
		t0 := time.Now()
		_, err := eng.Acquire(ctx, p.a, p.b)
		hitDur = append(hitDur, time.Since(t0))
		if err != nil {
			c.wrongf("ladder: acquire hit: %v", err)
		}
	}
	sp.end()
	vals["query.acquire_hit_us"] = us(summarize(hitDur).p50)

	batches, err := decodeCalls(c.calls)
	if err != nil {
		return 0, err
	}
	replay := query.NewEngine(engineOptions(c.workers, hotKernels))
	defer replay.Close()
	for _, reqs := range batches { // first pass fills the cache as serving did
		replay.BatchSolve(ctx, reqs)
	}
	results := make([][]query.Result, len(batches))
	batch := timed(tr, "query.batch", len(batches), func(i int) { results[i] = replay.BatchSolve(ctx, batches[i]) })
	vals["query.batch_us"] = us(summarize(batch).p50)
	checkBatches(c, batches, results)
	return int64(misses + len(hot) + hits + 2*len(batches)), nil
}

// decodeCalls parses kept /v1/batch bodies into engine requests.
func decodeCalls(bodies [][]byte) ([][]query.Request, error) {
	if len(bodies) == 0 {
		return nil, fmt.Errorf("ladder: no serve calls were kept to replay")
	}
	out := make([][]query.Request, len(bodies))
	for i, body := range bodies {
		var br server.BatchRequest
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, fmt.Errorf("ladder: kept call %d: %w", i, err)
		}
		for _, w := range br.Requests {
			kind, err := query.ParseKind(w.Kind)
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], query.Request{A: []byte(w.A), B: []byte(w.B), Kind: kind, From: w.From, To: w.To, Width: w.Width})
		}
	}
	return out, nil
}

// checkBatches compares replayed answers with direct Solve + NewSession.
func checkBatches(c *runCtx, batches [][]query.Request, results [][]query.Result) {
	sessions := make(map[string]*query.Session)
	for i, reqs := range batches {
		for j, r := range reqs {
			key := string(r.A) + "\x00" + string(r.B)
			s, ok := sessions[key]
			if !ok {
				k, err := core.Solve(r.A, r.B, core.Config{Algorithm: core.AntidiagBranchless})
				if err != nil {
					c.wrongf("ladder: reference solve: %v", err)
					return
				}
				s = query.NewSession(k)
				sessions[key] = s
			}
			got := results[i][j]
			want, wantFrom := expect(s, r.Kind, r.From, r.To, r.Width)
			if got.Err != nil || got.Score != want || got.From != wantFrom {
				c.wrongf("ladder: batch %v(%d,%d,w=%d): got %d@%d (%v), want %d@%d", r.Kind, r.From, r.To, r.Width, got.Score, got.From, got.Err, want, wantFrom)
			}
		}
	}
}

// ladderServer counts heap allocations per /v1/batch call through
// Handler().ServeHTTP directly, on the kept serve calls after a warm-up
// pass.
func ladderServer(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	srv, err := server.New(server.Config{Shards: 1, Engine: engineOptions(c.workers, hotKernels)})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func() {
		for _, body := range c.calls {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				c.wrongf("ladder: direct handler call: HTTP %d", w.Code)
			}
		}
	}
	serve() // warm the cache
	var before, after runtime.MemStats
	sp := tr.start("server.direct", 0, 0)
	runtime.ReadMemStats(&before)
	serve()
	runtime.ReadMemStats(&after)
	sp.end()
	vals["server.allocs_per_call"] = float64(after.Mallocs-before.Mallocs) / float64(len(c.calls))
	return int64(2 * len(c.calls)), nil
}

// ladderStore: store.Put and store.Get of solved working-set kernels in
// a fresh NoSync store.
func ladderStore(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	st, err := store.Open(filepath.Join(c.dir, "ladder-store"), store.Config{NoSync: true})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	const n = 256
	keys := make([]store.Key, n)
	ks := make([]*core.Kernel, n)
	for i, p := range servePairs(c.seed, n) {
		k, err := core.Solve(p.a, p.b, solveConfig(c.workers))
		if err != nil {
			return 0, err
		}
		keys[i], ks[i] = store.KeyOf(p.a, p.b), k
	}
	put := timed(tr, "store.put", n, func(i int) {
		if err := st.Put(keys[i], ks[i]); err != nil {
			c.wrongf("ladder: store put: %v", err)
		}
	})
	get := timed(tr, "store.get", n, func(i int) {
		k, err := st.Get(keys[i])
		if err != nil || !slices.Equal(k.Permutation().RowToCol(), ks[i].Permutation().RowToCol()) {
			c.wrongf("ladder: store get %d: kernel differs (%v)", i, err)
		}
	})
	vals["store.put_us"] = us(summarize(put).p50)
	vals["store.get_us"] = us(summarize(get).p50)
	return 2 * n, nil
}

// ladderStream replays the same rounds on the engine's stream group
// and on a bare stream.Group with the engine's leaf configuration and
// pool width; the difference is the engine wrapper's cost.
func ladderStream(c *runCtx, tr *tracer, vals map[string]float64) (int64, error) {
	const rounds = 96
	pats := streamPatterns(c.seed)
	sg, err := setupStreamGroup(c, pats)
	if err != nil {
		return 0, err
	}
	defer sg.close()
	ctx := context.Background()
	engine := timed(tr, "query.group_round", rounds, func(i int) {
		if err := sg.Slide(ctx, 1); err != nil {
			c.wrongf("ladder: engine group slide: %v", err)
		}
		if err := sg.Append(ctx, chunkAt(c.seed, streamWindow+i)); err != nil {
			c.wrongf("ladder: engine group append: %v", err)
		}
	})

	pool := parallel.NewPool(c.workers)
	defer pool.Close()
	leaf := core.Config{Algorithm: core.AntidiagBranchless}
	bare, err := stream.NewGroup(pats, stream.GroupConfig{Solve: &leaf, Pool: pool})
	if err != nil {
		return 0, err
	}
	for r := 0; r < streamWindow; r++ {
		if err := bare.Append(chunkAt(c.seed, r)); err != nil {
			return 0, err
		}
	}
	bareDur := timed(tr, "stream.group_round", rounds, func(i int) {
		if err := bare.Slide(1); err != nil {
			c.wrongf("ladder: bare group slide: %v", err)
		}
		if err := bare.Append(chunkAt(c.seed, streamWindow+i)); err != nil {
			c.wrongf("ladder: bare group append: %v", err)
		}
	})
	vals["query.group_append_ms"] = ms(summarize(engine).p50)
	vals["stream.group_append_ms"] = ms(summarize(bareDur).p50)
	for i := 0; i < len(pats); i += 37 {
		if !slices.Equal(sg.State(i).Kernel.Permutation().RowToCol(), bare.Snapshot(i).Kernel.Permutation().RowToCol()) {
			c.wrongf("ladder: engine and bare group kernels differ for pattern %d", i)
		}
	}
	return 2 * rounds, nil
}
