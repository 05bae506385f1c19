package query

import (
	"context"
	"sync/atomic"

	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/stream"
)

// Stream is the engine's serving handle over one streaming kernel
// session (internal/stream): a fixed pattern against a chunked,
// optionally sliding window of text. Mutations go through the engine's
// hardening — the default per-request deadline bounds each append, and
// transient failures (injected faults today, transport errors
// tomorrow) retry under the engine's RetryPolicy with backoff. Reads
// never block on mutations: Session caches one prepared query session
// per published kernel generation, so repeated queries between appends
// skip re-preprocessing.
//
// All methods are safe for concurrent use. A Stream has no resources
// of its own to release; closing the engine fails subsequent
// mutations with ErrEngineClosed while already-published generations
// stay queryable.
type Stream struct {
	e  *Engine
	ss *stream.Session

	appends *obs.Counter
	slides  *obs.Counter

	cur atomic.Pointer[streamGen]
}

// streamGen caches the prepared query session of one published kernel
// generation.
type streamGen struct {
	gen  uint64
	sess *Session
}

// OpenStream opens a streaming session for pattern a, wired to the
// engine's observability, chaos injection, deadline, and retry
// policy. Leaf chunks are combed with the sequential variant of the
// engine's solve configuration: chunks are small relative to the
// window, so intra-solve parallelism would pay pure overhead per
// append.
//
// The stream counters (streams_opened, stream_appends, stream_slides)
// register in the engine's stats on first use, so engines that never
// stream report the same counter set as before.
func (e *Engine) OpenStream(a []byte) (*Stream, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	leafCfg, _ := degradeConfig(e.cfg)
	if leafCfg == (core.Config{}) {
		leafCfg = stream.DefaultSolveConfig()
	}
	ss, err := stream.New(a, stream.Config{Solve: &leafCfg, Obs: e.rec, Chaos: e.inj, Tuning: e.tn})
	if err != nil {
		return nil, err
	}
	e.reg.Counter("streams_opened").Inc()
	return &Stream{
		e:       e,
		ss:      ss,
		appends: e.reg.Counter("stream_appends"),
		slides:  e.reg.Counter("stream_slides"),
	}, nil
}

// Append extends the window with one chunk under the engine's deadline
// and retry policy. A failed append — transient budget exhausted,
// deadline expired, window overflow — leaves the stream on its
// previous generation; retrying the same chunk is always meaningful.
func (st *Stream) Append(ctx context.Context, chunk []byte) error {
	if st.e.closed.Load() {
		return ErrEngineClosed
	}
	st.appends.Inc()
	return st.mutate(ctx, func() error { return st.ss.Append(chunk) })
}

// Slide drops the drop oldest chunks from the window, under the same
// deadline and retry semantics as Append.
func (st *Stream) Slide(ctx context.Context, drop int) error {
	if st.e.closed.Load() {
		return ErrEngineClosed
	}
	st.slides.Inc()
	return st.mutate(ctx, func() error { return st.ss.Slide(drop) })
}

// mutate runs one streaming mutation under the engine's default
// deadline and transient-retry policy. The underlying session
// guarantees a failed mutation changed nothing, which is what makes
// blind re-issue correct.
func (st *Stream) mutate(ctx context.Context, op func() error) error {
	if st.e.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, st.e.deadline)
		defer cancel()
	}
	return st.e.retryTransient(ctx, "stream mutation", func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return op()
	})
}

// Session returns the prepared query session for the latest published
// generation, building the dominance structure at most once per
// generation (concurrent callers racing a fresh generation may build
// twice; the kernel's internal sync.Once keeps that safe and the
// last-stored cache wins).
func (st *Stream) Session() *Session {
	cur := st.ss.Current()
	if g := st.cur.Load(); g != nil && g.gen == cur.Gen {
		return g.sess
	}
	sess := NewSession(cur.Kernel)
	st.cur.Store(&streamGen{gen: cur.Gen, sess: sess})
	return sess
}

// Query answers one request kind against the latest published
// generation, validating ranges like BatchSolve does (errors instead
// of panics). Request.A/B, Config and Timeout are ignored: the pair is
// the stream's pattern and current window, and mutation — not query —
// is where the deadline applies.
func (st *Stream) Query(req Request) Result {
	sess := st.Session()
	if err := req.Kind.validate(req.From, req.To, req.Width, sess.M(), sess.N()); err != nil {
		return Result{Err: err}
	}
	qsp := st.e.rec.Start(obs.StageQuery)
	res := answer(sess, req)
	qsp.End()
	return res
}

// State returns the latest published generation of the underlying
// streaming session.
func (st *Stream) State() stream.State { return st.ss.Current() }

// M returns the pattern length.
func (st *Stream) M() int { return st.ss.M() }

// Generation returns the latest published generation number.
func (st *Stream) Generation() uint64 { return st.ss.Generation() }

// Window returns the published window length in bytes.
func (st *Stream) Window() int { return st.ss.Window() }

// Leaves returns the published number of chunks in the window.
func (st *Stream) Leaves() int { return st.ss.Leaves() }

// Compositions returns the total steady-ant compositions performed.
func (st *Stream) Compositions() int64 { return st.ss.Compositions() }
