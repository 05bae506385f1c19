package main

import (
	"context"
	"fmt"
	"time"

	"semilocal/internal/core"
	"semilocal/internal/query"
)

// stream-group: one caller advances an Engine.OpenStreamGroup over P
// patterns round by round — slide one chunk out, append one chunk, then
// query a seeded handful of patterns.

const (
	queriesPerRound = 4
	// checkEvery is the mean spacing of the rounds whose answers are
	// checked against a from-scratch solve of the window.
	checkEvery = 32
)

// streamQuery is one sampled-round query and its answer.
type streamQuery struct {
	pat  int
	req  query.Request
	got  query.Result
	wind []byte // the window at the time, set on sampled rounds
}

// engineGroup is a stream group with the engine that owns it.
type engineGroup struct {
	*query.StreamGroup
	eng *query.Engine
}

func (g *engineGroup) close() error {
	g.eng.Close()
	return nil
}

// setupStreamGroup opens an engine and a group over the patterns and
// fills the window with streamWindow chunks.
func setupStreamGroup(c *runCtx, pats [][]byte) (*engineGroup, error) {
	eng := query.NewEngine(engineOptions(c.workers, 0))
	sg, err := eng.OpenStreamGroup(pats)
	if err != nil {
		eng.Close()
		return nil, err
	}
	for r := 0; r < streamWindow; r++ {
		if err := sg.Append(context.Background(), chunkAt(c.seed, r)); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return &engineGroup{sg, eng}, nil
}

// roundQuery is the seeded query j of round r.
func roundQuery(seed int64, r, j int, m, n int) (int, query.Request) {
	g := newPRNG(mix(seed, labMix, uint64(r)<<8|uint64(j)))
	pat := g.intn(streamP)
	req := query.Request{Kind: wireKinds[g.intn(len(wireKinds))]}
	switch req.Kind {
	case query.StringSubstring:
		req.From, req.To = ordered(g.intn(n+1), g.intn(n+1))
	case query.SubstringString:
		req.From, req.To = ordered(g.intn(m+1), g.intn(m+1))
	case query.SuffixPrefix, query.PrefixSuffix:
		req.From, req.To = g.intn(m+1), g.intn(n+1)
	case query.BestWindow:
		req.Width = n/4 + g.intn(n/2)
	}
	return pat, req
}

func measureStreamGroup(c *runCtx, d time.Duration, setups int, tr *tracer) (*phase, error) {
	p := &phase{}
	pats := streamPatterns(c.seed)
	sg, err := timeSetups(p, setups, func() (*engineGroup, error) { return setupStreamGroup(c, pats) }, (*engineGroup).close)
	if err != nil {
		return nil, err
	}
	defer sg.close()

	ctx := context.Background()
	window := make([][]byte, 0, streamWindow+1)
	for r := 0; r < streamWindow; r++ {
		window = append(window, chunkAt(c.seed, r))
	}
	solves0, shares0, comps0 := sg.LeafSolves(), sg.LeafShares(), sg.Compositions()
	pick := newPRNG(mix(c.seed, labCheck, 3))
	var lats []sample
	var checks []streamQuery
	var bytesIn int64
	rounds := 0
	heap, cpu0 := startHeapSampler(), cpuTime()
	start := time.Now()
	for r := streamWindow; time.Since(start) < d; r++ {
		p.attempted++
		chunk := chunkAt(c.seed, r)
		root := tr.start("bench.round", 0, int64(r))
		t0 := time.Now()
		sp := tr.start("stream.slide", root.ID(), int64(r))
		err := sg.Slide(ctx, 1)
		sp.end()
		if err == nil {
			sp = tr.start("stream.append", root.ID(), int64(r))
			err = sg.Append(ctx, chunk)
			sp.end()
		}
		lats = append(lats, sample{end: time.Since(start), dur: time.Since(t0)})
		if err != nil {
			root.end()
			p.failed++
			continue
		}
		bytesIn += int64(len(chunk))
		window = append(window[1:], chunk)
		sampled := pick.intn(checkEvery) == 0
		for j := 0; j < queriesPerRound; j++ {
			pat, req := roundQuery(c.seed, r, j, streamM, sg.Window())
			sp := tr.start("query.group_query", root.ID(), int64(r))
			res := sg.Query(pat, req)
			sp.end()
			if res.Err != nil {
				p.failed++
				continue
			}
			if sampled {
				checks = append(checks, streamQuery{pat: pat, req: req, got: res, wind: joinChunks(window)})
			}
		}
		root.end()
		rounds++
	}
	elapsed := time.Since(start)
	p.heapMB, p.peakRSSMB = heap.finish(), peakRSSMB()
	p.cpuPerOp = (cpuTime() - cpu0) / time.Duration(max(len(lats), 1))
	rate, tail, q := blockStats(lats, d, blocks)
	lat := summarize(durations(lats))
	p.opsPerS, p.p50, p.tail = rate, lat.p50, tail
	p.tailNote = fmt.Sprintf("median over %d blocks of each block's p%g; %d rounds", blocks, 100*q, lat.n)
	p.figures = []figure{
		{"stream_append_p50_ms", ms(lat.p50), "ms", fmt.Sprintf("slide+append of %d patterns, n=%d", streamP, lat.n)},
		{"stream_append_p99_ms", ms(lat.p99), "ms", fmt.Sprintf("n=%d, %d beyond", lat.n, beyond(lat.n, 0.99))},
		{"stream_mb_per_s", float64(bytesIn) / elapsed.Seconds() / 1e6, "MB/s", fmt.Sprintf("%d-byte chunks, %d queries per round", streamChunk, queriesPerRound)},
		{"fail_share", ratio(p.failed, p.attempted), "ratio", fmt.Sprintf("%d of %d", p.failed, p.attempted)},
	}
	if tr != nil && rounds > 0 {
		n := float64(rounds)
		p.layer = map[string]float64{
			"stream.leaf_solves_per_round":  float64(sg.LeafSolves()-solves0) / n,
			"stream.leaf_shares_per_round":  float64(sg.LeafShares()-shares0) / n,
			"stream.compositions_per_round": float64(sg.Compositions()-comps0) / n,
		}
	}
	checkStream(c, pats, checks)
	return p, nil
}

func joinChunks(chunks [][]byte) []byte {
	var out []byte
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}

// checkStream re-solves each sampled window from scratch and compares
// the group's answers.
func checkStream(c *runCtx, pats [][]byte, checks []streamQuery) {
	defer c.checked(time.Now())
	for _, q := range checks {
		k, err := core.Solve(pats[q.pat], q.wind, core.Config{Algorithm: core.AntidiagBranchless})
		if err != nil {
			c.wrongf("stream-group: reference solve: %v", err)
			return
		}
		want, wantFrom := expect(query.NewSession(k), q.req.Kind, q.req.From, q.req.To, q.req.Width)
		if q.got.Score != want || q.got.From != wantFrom {
			c.wrongf("stream-group: pattern %d %v(%d,%d,w=%d): got %d@%d, want %d@%d",
				q.pat, q.req.Kind, q.req.From, q.req.To, q.req.Width, q.got.Score, q.got.From, want, wantFrom)
		}
	}
}
