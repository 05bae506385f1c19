// Package server is the network-native serving tier over the batch
// query engine: one query.Engine fronted by an HTTP/JSON API (batch
// solves and query families on /v1/batch, streaming op scripts on
// /v1/stream, Prometheus text on /metrics, liveness on /healthz).
//
// The engine's kernel cache is keyed by the input pair alone and its
// capacity is global, so one engine holds the whole working set that
// fits its MaxKernels; its singleflight dedup spans every client.
// Per-tenant quotas layer on top of the engine's
// MaxQueue/Deadline/retry/shed machinery: the engine bound protects the
// process, the tenant bound protects tenants from each other. Requests
// fail typed (shed, quota, closed, too_large, deadline, canceled,
// injected, invalid) and only when there is genuinely no way to answer.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"semilocal/internal/obs"
	"semilocal/internal/query"
)

// Config configures a Server.
type Config struct {
	// Shards is kept only so existing callers that set it still
	// compile; New accepts 0 and 1 and rejects anything else. The tier
	// always runs one engine.
	Shards int
	// Engine configures the tier's engine; its Obs recorder also times
	// the tier's own request stage.
	Engine query.Options
	// TenantQuota bounds each tenant's outstanding requests across the
	// whole tier; 0 disables per-tenant admission.
	TenantQuota int
	// MaxBodyBytes caps an HTTP request body (0 → DefaultMaxBodyBytes);
	// larger bodies get 413.
	MaxBodyBytes int64
	// MaxBatch caps requests per batch call and ops per stream call
	// (0 → DefaultMaxBatch).
	MaxBatch int
	// MaxPairBytes caps len(a)+len(b) per request (0 →
	// DefaultMaxPairBytes): a kernel solve is Θ(len(a)·len(b)), so the
	// wire must not sell unbounded compute.
	MaxPairBytes int
}

// Server is the serving tier. Construct with New, expose Handler
// through an http.Server, Close when done (closes the engine; the
// caller owns listener and store lifecycles).
type Server struct {
	eng     *query.Engine
	tenants *tenantTable
	rec     *obs.Recorder
	reg     *obs.Registry // tier-level counters
	mux     *http.ServeMux
	closed  atomic.Bool

	maxBody  int64
	maxBatch int
	maxPair  int

	requests *obs.Counter // requests accepted (batch requests + stream ops)
	rejects  *obs.Counter // requests rejected by tenant quota
}

// New builds the tier: the engine, the quota table, and the HTTP mux.
func New(cfg Config) (*Server, error) {
	if cfg.Shards != 0 && cfg.Shards != 1 {
		return nil, fmt.Errorf("server: shards %d unsupported (the tier runs one engine; leave Shards 0 or 1)", cfg.Shards)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	maxBatch := cfg.MaxBatch
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	maxPair := cfg.MaxPairBytes
	if maxPair == 0 {
		maxPair = DefaultMaxPairBytes
	}
	s := &Server{
		eng:      query.NewEngine(cfg.Engine),
		tenants:  newTenantTable(cfg.TenantQuota),
		rec:      cfg.Engine.Obs,
		reg:      obs.NewRegistry(),
		maxBody:  maxBody,
		maxBatch: maxBatch,
		maxPair:  maxPair,
	}
	s.requests = s.reg.Counter("server_requests")
	s.rejects = s.reg.Counter("tenant_rejects")
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/stream", s.handleStream)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the tier's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the engine down (draining its store appends).
// In-flight HTTP requests racing Close get typed "closed" errors.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.eng.Close()
}

// Stats returns the tier's counters: the engine registry merged with
// the tier-level server_requests and tenant_rejects.
func (s *Server) Stats() map[string]int64 { return s.values().Map() }

// values is the typed merge behind Stats.
func (s *Server) values() obs.Values {
	return s.reg.Values().Merge(s.eng.Registry().Values())
}

// StatsLine renders the counters as a stable one-line summary (sorted
// names), mirroring Engine.StatsLine.
func (s *Server) StatsLine() string { return s.values().String() }

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start(obs.StageServerRequest)
	defer sp.End()
	var br BatchRequest
	if !s.readRequest(w, r, &br) {
		return
	}
	if !validTenant(br.Tenant) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: invalid tenant %q", br.Tenant))
		return
	}
	if len(br.Requests) > s.maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: batch of %d exceeds limit %d", len(br.Requests), s.maxBatch))
		return
	}
	n := len(br.Requests)
	s.requests.Add(int64(n))
	results := make([]WireResult, n)

	// Tenant admission at arrival, mirroring the engine's MaxQueue
	// semantics: the head of the batch takes the free quota, the tail is
	// rejected typed. Slots are held until the batch answers.
	admitted := s.tenants.admit(br.Tenant, n)
	defer s.tenants.release(br.Tenant, admitted)
	if admitted < n {
		rejected := int64(n - admitted)
		s.rejects.Add(rejected)
		for i := admitted; i < n; i++ {
			results[i] = errorResult(ErrTenantQuota)
		}
	}

	// Requests that fail wire validation answer in place; the rest go
	// to the engine as one batch, scattered back by original index.
	reqs := make([]query.Request, 0, admitted)
	idx := make([]int, 0, admitted)
	for i := 0; i < admitted; i++ {
		req, err := toEngineRequest(br.Requests[i], s.maxPair)
		if err != nil {
			results[i] = errorResult(err)
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	for j, res := range s.eng.BatchSolve(r.Context(), reqs) {
		results[idx[j]] = toWireResult(res)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// handleStream serves POST /v1/stream: the whole op script runs in
// order against one engine stream group. A failed mutation reports in
// its slot and touched no spine, so later ops still answer against a
// consistent group-wide generation — the same semantics as the CLI
// -stream mode.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.Start(obs.StageServerRequest)
	defer sp.End()
	var sr StreamRequest
	if !s.readRequest(w, r, &sr) {
		return
	}
	if !validTenant(sr.Tenant) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: invalid tenant %q", sr.Tenant))
		return
	}
	if len(sr.Ops) > s.maxBatch {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: script of %d ops exceeds limit %d", len(sr.Ops), s.maxBatch))
		return
	}
	patterns, err := s.groupPatterns(sr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	n := len(sr.Ops)
	s.requests.Add(int64(n))

	// Stream scripts admit all-or-nothing: ops are stateful and ordered,
	// so shedding a prefix would corrupt the meaning of the suffix.
	if admitted := s.tenants.admit(sr.Tenant, n); admitted < n {
		s.tenants.release(sr.Tenant, admitted)
		s.rejects.Add(int64(n))
		httpError(w, http.StatusTooManyRequests, ErrTenantQuota.Error())
		return
	}
	defer s.tenants.release(sr.Tenant, n)

	sg, err := s.eng.OpenStreamGroup(patterns)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	results := make([]StreamOpResult, n)
	ctx := r.Context()
	for i, op := range sr.Ops {
		results[i] = s.streamGroupOp(ctx, sg, op)
	}
	writeJSON(w, http.StatusOK, StreamResponse{
		Patterns: sg.Patterns(),
		Distinct: sg.DistinctPatterns(),
		Results:  results,
	})
}

// groupPatterns resolves and validates the pattern set of a stream
// request: pattern/pattern64 is a set of one, patterns/patterns64 a set
// of several. One spelling only, at most maxBatch patterns, and at most
// maxPair total pattern bytes (group leaf work per append scales with
// the distinct pattern mass, so the wire bounds it like an input pair).
func (s *Server) groupPatterns(sr StreamRequest) ([][]byte, error) {
	if len(sr.Patterns) == 0 && len(sr.Patterns64) == 0 {
		pattern, err := pairBytes(sr.Pattern, sr.Pattern64, "pattern")
		if err != nil {
			return nil, err
		}
		if len(pattern) > s.maxPair {
			return nil, fmt.Errorf("server: pattern %d bytes exceeds limit %d", len(pattern), s.maxPair)
		}
		return [][]byte{pattern}, nil
	}
	if sr.Pattern != "" || sr.Pattern64 != "" {
		return nil, errors.New("server: both pattern and patterns set")
	}
	if len(sr.Patterns) > 0 && len(sr.Patterns64) > 0 {
		return nil, errors.New("server: both patterns and patterns64 set")
	}
	var patterns [][]byte
	if len(sr.Patterns) > 0 {
		patterns = make([][]byte, len(sr.Patterns))
		for i, p := range sr.Patterns {
			patterns[i] = []byte(p)
		}
	} else {
		patterns = make([][]byte, len(sr.Patterns64))
		for i, p64 := range sr.Patterns64 {
			raw, err := base64.StdEncoding.DecodeString(p64)
			if err != nil {
				return nil, fmt.Errorf("server: bad patterns64[%d]: %w", i, err)
			}
			patterns[i] = raw
		}
	}
	if len(patterns) > s.maxBatch {
		return nil, fmt.Errorf("server: %d patterns exceeds limit %d", len(patterns), s.maxBatch)
	}
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	if total > s.maxPair {
		return nil, fmt.Errorf("server: patterns total %d bytes exceeds limit %d", total, s.maxPair)
	}
	return patterns, nil
}

// streamGroupOp executes one op against the session group.
func (s *Server) streamGroupOp(ctx context.Context, sg *query.StreamGroup, op WireOp) StreamOpResult {
	fail := func(err error) StreamOpResult {
		return StreamOpResult{Error: err.Error(), ErrorKind: errorKind(err)}
	}
	switch op.Op {
	case "append":
		chunk, err := pairBytes(op.Chunk, op.Chunk64, "chunk")
		if err != nil {
			return fail(err)
		}
		if len(chunk) > s.maxPair {
			return fail(fmt.Errorf("server: chunk %d bytes exceeds limit %d: %w", len(chunk), s.maxPair, errPairTooLarge))
		}
		if err := sg.Append(ctx, chunk); err != nil {
			return fail(err)
		}
	case "slide":
		if err := sg.Slide(ctx, op.N); err != nil {
			return fail(err)
		}
	case "query":
		kind, err := query.ParseKind(op.Kind)
		if err != nil {
			return fail(err)
		}
		res := sg.Query(op.Pat, query.Request{Kind: kind, From: op.From, To: op.To, Width: op.Width})
		if res.Err != nil {
			return fail(res.Err)
		}
		return StreamOpResult{
			Pat:   op.Pat,
			Score: res.Score, From: res.From, Windows: res.Windows,
			Gen: sg.Generation(), Window: sg.Window(), Leaves: sg.Leaves(),
		}
	default:
		return fail(fmt.Errorf("server: unknown op %q (want append, slide or query)", op.Op))
	}
	return StreamOpResult{Gen: sg.Generation(), Window: sg.Window(), Leaves: sg.Leaves()}
}

// handleMetrics serves the Prometheus text exposition: the stage
// histograms and obs counters, and the tier's registry values.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "server: GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// WriteMetrics writes the full exposition that /metrics serves to w.
func (s *Server) WriteMetrics(w io.Writer) {
	obs.WriteMetrics(w, s.rec.Snapshot(), s.values())
}

// handleHealthz serves liveness: 200 while the server is open, 503
// after Close.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readRequest decodes one JSON request body under the configured
// limits, writing the 4xx response itself on failure: 405 for
// non-POST, 413 for oversized bodies, 400 for malformed JSON.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "server: POST only")
		return false
	}
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, s.maxBody), v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("server: body exceeds %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("server: bad request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
