package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"semilocal/internal/core"
	"semilocal/internal/query"
	"semilocal/internal/server"
	"semilocal/internal/store"
)

// The serving workloads drive server.New(...).Handler() over loopback
// HTTP with keep-alive connections, at most one per CPU. Every
// /v1/batch call carries batchSize requests over ~256-byte genome-like
// pairs with kinds mixed across score, the four quadrant queries and
// best-window.

const (
	batchSize = 8
	// hotPairs is serve-hot's hot set, well inside hotKernels.
	hotPairs   = 16
	hotKernels = 64
	// storePairs is serve-store's working set, well above storeKernels.
	storePairs   = 512
	storeKernels = 64
	zipfS        = 1.1
)

// wireKinds are the query kinds a call mixes.
var wireKinds = []query.Kind{query.Score, query.StringSubstring, query.SubstringString, query.SuffixPrefix, query.PrefixSuffix, query.BestWindow}

func engineOptions(workers, kernels int) query.Options {
	return query.Options{Config: solveConfig(workers), Workers: workers, MaxKernels: kernels}
}

// serveEnv is one running serving tier and its client.
type serveEnv struct {
	srv    *server.Server
	st     *store.Store
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

// openServe starts the tier on a loopback listener. With st non-nil
// the engine uses it as its persistent second tier. A non-nil tracer
// wraps the handler in a span per call.
func openServe(c *runCtx, kernels int, st *store.Store, tr *tracer) (*serveEnv, error) {
	opts := engineOptions(c.workers, kernels)
	opts.Store = st
	srv, err := server.New(server.Config{Shards: 1, Engine: opts})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	e := &serveEnv{
		srv: srv, st: st, hs: &http.Server{Handler: h}, served: make(chan struct{}),
		url: "http://" + ln.Addr().String() + "/v1/batch",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: c.workers,
			MaxConnsPerHost:     c.workers,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return e, nil
}

// close stops the listener, waits for the serve loop, then closes the
// tier and its store.
func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	err := e.hs.Close()
	<-e.served
	e.srv.Close()
	if e.st != nil {
		if cerr := e.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// tracedHandler is the benchmark's own wrapper around the tier's
// handler: one server.handler span per call, parented to the client's
// net.call span through request headers.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	sp := t.tr.start("server.handler", parent, req)
	t.h.ServeHTTP(w, r)
	sp.end()
}

// wireCall is one generated /v1/batch body and what it asks.
type wireCall struct {
	body []byte
	reqs [batchSize]askRec
}

// askRec is one request of a call: the pair (working-set index, or
// fresh id when fresh) and the query.
type askRec struct {
	pair     int64
	from, to int32
	width    int32
	kind     query.Kind
	fresh    bool
}

// answer is one request's reply.
type answer struct {
	score, from int32
	failed      bool
}

// callRecord is one sent call, kept for the answer checks: its
// requests are regenerated from the id, so only the answers are held.
type callRecord struct {
	id       int64
	answered bool
	got      [batchSize]answer
}

// callGen generates calls: with probability hitShare a request draws a
// working-set pair (uniformly, or by Zipf rank when z is set),
// otherwise a never-seen pair.
type callGen struct {
	seed     int64
	set      []pair
	z        *zipf
	hitShare float64
}

func (g *callGen) pairOf(a askRec) pair {
	if a.fresh {
		return freshPair(g.seed, a.pair)
	}
	return g.set[a.pair]
}

// call builds the call with id, which also names its fresh pairs (id<<4
// plus the request's index), so ids must stay below 2^59.
func (g *callGen) call(id int64) *wireCall {
	r := newPRNG(mix(g.seed, labClient, uint64(id)))
	wc := &wireCall{}
	buf := make([]byte, 0, batchSize*(2*serveLen+96)+16)
	buf = append(buf, `{"requests":[`...)
	for j := range wc.reqs {
		a := &wc.reqs[j]
		if r.float() < g.hitShare {
			if g.z != nil {
				a.pair = int64(g.z.draw(r))
			} else {
				a.pair = int64(r.intn(len(g.set)))
			}
		} else {
			a.fresh, a.pair = true, id<<4|int64(j)
		}
		p := g.pairOf(*a)
		m, n := len(p.a), len(p.b)
		a.kind = wireKinds[r.intn(len(wireKinds))]
		switch a.kind {
		case query.StringSubstring:
			a.from, a.to = orderedI32(r.intn(n+1), r.intn(n+1))
		case query.SubstringString:
			a.from, a.to = orderedI32(r.intn(m+1), r.intn(m+1))
		case query.SuffixPrefix, query.PrefixSuffix:
			a.from, a.to = int32(r.intn(m+1)), int32(r.intn(n+1))
		case query.BestWindow:
			a.width = int32(n/4 + r.intn(n/2))
		}
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"a":"`...)
		buf = append(buf, p.a...) // genome letters need no JSON escaping
		buf = append(buf, `","b":"`...)
		buf = append(buf, p.b...)
		buf = append(buf, `","kind":"`...)
		buf = append(buf, a.kind.String()...)
		buf = append(buf, `","from":`...)
		buf = strconv.AppendInt(buf, int64(a.from), 10)
		buf = append(buf, `,"to":`...)
		buf = strconv.AppendInt(buf, int64(a.to), 10)
		buf = append(buf, `,"width":`...)
		buf = strconv.AppendInt(buf, int64(a.width), 10)
		buf = append(buf, '}')
	}
	wc.body = append(buf, "]}"...)
	return wc
}

// do posts one call with the given id; ok is false when the call or
// any of its requests failed.
func (e *serveEnv) do(wc *wireCall, tr *tracer, id int64) (rec callRecord, ok bool) {
	rec.id = id
	sp := tr.start("net.call", 0, id)
	defer sp.end()
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(wc.body))
	if err != nil {
		return rec, false
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.ID(), 10))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return rec, false
	}
	defer resp.Body.Close()
	var br server.BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != batchSize {
		return rec, false
	}
	rec.answered, ok = true, true
	for j, r := range br.Results {
		rec.got[j] = answer{score: int32(r.Score), from: int32(r.From), failed: r.Error != ""}
		if r.Error != "" {
			ok = false
		}
	}
	return rec, ok
}

// serveRun is what a serving phase collected: one sample per call
// (for an open loop the sample's end is the call's due time, which
// places it in its block), the call records for the checks, and the
// first calls' bodies for the ladder's replays.
type serveRun struct {
	samples       []sample
	calls, failed int64
	records       []callRecord
	bodies        [][]byte
}

func (s *serveRun) add(o serveRun) {
	s.samples = append(s.samples, o.samples...)
	s.calls += o.calls
	s.failed += o.failed
	s.records = append(s.records, o.records...)
	s.bodies = append(s.bodies, o.bodies...)
}

// checkCalls is how many calls per client or rung keep their answers
// for the checks; later calls are only timed and counted, so the
// benchmark's own records do not grow the heap the run measures with
// its throughput.
const checkCalls = 2048

// record adds one finished call.
func (s *serveRun) record(smp sample, rec callRecord, ok bool, body []byte) {
	s.samples = append(s.samples, smp)
	if len(s.records) < checkCalls {
		s.records = append(s.records, rec)
	}
	s.calls++
	if !ok {
		s.failed++
	}
	if len(s.bodies) < keepBodies {
		s.bodies = append(s.bodies, body)
	}
}

// closedLoop runs one closed-loop client per CPU for d: each waits for
// its reply before sending the next call.
func closedLoop(c *runCtx, e *serveEnv, g *callGen, d time.Duration, tr *tracer) serveRun {
	per := make([]serveRun, c.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < c.workers; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := int64(0); time.Since(start) < d; k++ {
				id := int64(cl)<<40 | k
				wc := g.call(id)
				t0 := time.Now()
				rec, ok := e.do(wc, tr, id)
				per[cl].record(sample{end: time.Since(start), dur: time.Since(t0)}, rec, ok, wc.body)
			}
		}(cl)
	}
	wg.Wait()
	var all serveRun
	for _, r := range per {
		all.add(r)
	}
	return all
}

// checkServe verifies the recorded calls' answers against direct Solve
// + NewSession: every working-set answer, and the fresh pairs of a
// seeded sample of about one call in freshSample.
func checkServe(c *runCtx, g *callGen, records []callRecord, label string) {
	defer c.checked(time.Now())
	const freshSample = 16
	const maxFresh = 400
	sessions := make(map[int64]*query.Session)
	session := func(a askRec) *query.Session {
		if !a.fresh {
			if s, ok := sessions[a.pair]; ok {
				return s
			}
		}
		p := g.pairOf(a)
		k, err := core.Solve(p.a, p.b, core.Config{Algorithm: core.AntidiagBranchless})
		if err != nil {
			c.wrongf("%s: reference solve: %v", label, err)
			return nil
		}
		s := query.NewSession(k)
		if !a.fresh {
			sessions[a.pair] = s
		}
		return s
	}
	pick := newPRNG(mix(c.seed, labCheck, 7))
	freshChecked := 0
	for _, rec := range records {
		if !rec.answered {
			continue
		}
		sampled := pick.intn(freshSample) == 0 && freshChecked < maxFresh
		wc := g.call(rec.id)
		for j, a := range wc.reqs {
			got := rec.got[j]
			if got.failed || (a.fresh && !sampled) {
				continue
			}
			if a.fresh {
				freshChecked++
			}
			s := session(a)
			if s == nil {
				return
			}
			want, wantFrom := expect(s, a.kind, int(a.from), int(a.to), int(a.width))
			if int(got.score) != want || int(got.from) != wantFrom {
				c.wrongf("%s: pair %d (fresh=%v) %v(%d,%d,w=%d): got %d@%d, want %d@%d",
					label, a.pair, a.fresh, a.kind, a.from, a.to, a.width, got.score, got.from, want, wantFrom)
			}
		}
	}
}

// expect answers one query kind on a reference session: the score and,
// for best-window, the window's left edge; for windows, the sum of the
// window scores.
func expect(s *query.Session, kind query.Kind, from, to, width int) (score, at int) {
	switch kind {
	case query.Windows:
		for _, v := range s.WindowScores(width) {
			score += v
		}
		return score, 0
	case query.StringSubstring:
		return s.StringSubstring(from, to), 0
	case query.SubstringString:
		return s.SubstringString(from, to), 0
	case query.SuffixPrefix:
		return s.SuffixPrefix(from, to), 0
	case query.PrefixSuffix:
		return s.PrefixSuffix(from, to), 0
	case query.BestWindow:
		at, score = s.BestWindow(width)
		return score, at
	}
	return s.Score(), 0
}

func orderedI32(x, y int) (int32, int32) {
	lo, hi := ordered(x, y)
	return int32(lo), int32(hi)
}

// statsDelta is the change of the tier's counters across a phase.
func statsDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// serveLayer fills the per-layer metrics of a traced serving phase:
// engine counter deltas, and handler and transport times from the spans
// recorded since span index from.
func serveLayer(p *phase, delta map[string]int64, tr *tracer, from int) {
	reqs := delta["server_requests"]
	p.layer["query.hit_ratio"] = ratio(delta["cache_hits"], delta["cache_hits"]+delta["cache_misses"])
	p.layer["query.evictions"] = 1000 * ratio(delta["cache_evictions"], reqs)
	p.layer["query.sheds"] = 1000 * ratio(delta["requests_shed"], reqs)
	if hits, misses := delta["store_hits"], delta["store_misses"]; hits+misses > 0 {
		p.layer["store.hit_ratio"] = ratio(hits, hits+misses)
	}
	spans := tr.snapshot()[from:]
	self := selfTimes(spans)
	var handler, transport []time.Duration
	for _, s := range spans {
		switch s.Name {
		case "server.handler":
			handler = append(handler, time.Duration(s.End-s.Start))
		case "net.call":
			transport = append(transport, self[s.ID])
		}
	}
	p.layer["server.handler_us"] = us(summarize(handler).p50)
	p.layer["net.transport_us"] = us(summarize(transport).p50)
}

// keepBodies is how many call bodies a serving phase keeps for the
// ladder's replays.
const keepBodies = 256

// keepCalls keeps the first calls' bodies for the ladder's replays.
func keepCalls(c *runCtx, bodies [][]byte) {
	for _, b := range bodies {
		if len(c.calls) >= keepBodies {
			return
		}
		c.calls = append(c.calls, b)
	}
}

// ---- serve-hot ----

// blocks is how many equal blocks a closed-loop phase is cut into for
// the median-over-blocks throughput and tail.
const blocks = 10

func measureServeHot(c *runCtx, d time.Duration, setups int, tr *tracer) (*phase, error) {
	p := &phase{}
	hot := servePairs(c.seed, hotPairs)
	g := &callGen{seed: c.seed, set: hot, hitShare: 0.95}
	e, err := timeSetups(p, setups, func() (*serveEnv, error) { return setupServeHot(c, hot, tr) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	// Warm the connections and the fresh-pair path before timing.
	closedLoop(c, e, g, 200*time.Millisecond, nil)

	before := e.srv.Stats()
	spanFrom := tr.count()
	heap, cpu0 := startHeapSampler(), cpuTime()
	run := closedLoop(c, e, g, d, tr)
	delta := statsDelta(before, e.srv.Stats())
	p.heapMB, p.peakRSSMB = heap.finish(), peakRSSMB()
	p.cpuPerOp = (cpuTime() - cpu0) / time.Duration(max(run.calls, 1))
	if err := e.close(); err != nil {
		return nil, err
	}
	p.attempted, p.failed = run.calls, run.failed
	rate, tail, q := blockStats(run.samples, d, blocks)
	lat := summarize(durations(run.samples))
	p.opsPerS, p.p50, p.tail = rate, lat.p50, tail
	p.tailNote = fmt.Sprintf("median over %d blocks of each block's p%g; %d calls", blocks, 100*q, lat.n)
	p.figures = []figure{
		{"serve_calls_per_s", rate, "1/s", fmt.Sprintf("median over %d blocks; %d clients, %d requests per call", blocks, c.workers, batchSize)},
		{"serve_p50_us", us(lat.p50), "us", fmt.Sprintf("n=%d", lat.n)},
		{"serve_p99_us", us(lat.p99), "us", fmt.Sprintf("n=%d, %d beyond", lat.n, beyond(lat.n, 0.99))},
		{"fail_share", ratio(p.failed, p.attempted), "ratio", fmt.Sprintf("%d of %d", p.failed, p.attempted)},
		{"cache_misses", float64(delta["cache_misses"]), "count", fmt.Sprintf("%d evictions, %d fresh-pair requests expected", delta["cache_evictions"], int64(float64(run.calls*batchSize)*(1-g.hitShare)))},
	}
	if tr != nil {
		p.layer = map[string]float64{}
		serveLayer(p, delta, tr, spanFrom)
		keepCalls(c, run.bodies)
	}
	checkServe(c, g, run.records, "serve-hot")
	return p, nil
}

// setupServeHot starts the tier and solves the hot set into its cache.
func setupServeHot(c *runCtx, hot []pair, tr *tracer) (*serveEnv, error) {
	e, err := openServe(c, hotKernels, nil, tr)
	if err != nil {
		return nil, err
	}
	g := &callGen{seed: c.seed, set: hot, hitShare: 1}
	for i := range hot {
		wc := g.call(-1 - int64(i))
		if _, ok := e.do(wc, nil, 0); !ok {
			e.close()
			return nil, fmt.Errorf("serve-hot: warm-up call failed")
		}
	}
	return e, nil
}
