// Package parallel is the fork-join runtime behind the parallel
// algorithms in this repository: a barriered parallel-for (the analog of
// the paper's OpenMP parallel loops followed by a sync) and a two-way
// fork (the analog of OpenMP tasks and taskwait).
//
// Like an OpenMP thread team, one process-wide team of
// runtime.GOMAXPROCS(0) helper goroutines starts when the package
// initialises, parks on a single unbuffered channel and lives as long as
// the process. A Pool owns no goroutines: it is only a width, the number
// of spans For cuts a range into (at most the team size). Every fork
// offers each span to an idle helper with a non-blocking send, runs the
// span inline on the caller when no helper is parked, and then waits for
// the spans it handed off.
//
// A fork never blocks on a busy team, so nested For and Do calls (a
// span that forks again) cannot deadlock: every wait is for spans that
// are already running on some goroutine. The team size, fixed at
// start-up, bounds how many handed-off spans run at once.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// join is the barrier of one fork: the spans still running and the
// first panic any of them raised. Later panics of the same fork are
// dropped (one representative failure is enough to crash the caller,
// and the count stays balanced either way).
type join struct {
	pending sync.WaitGroup
	once    sync.Once
	panicv  any
}

// wait blocks until every span of the fork has finished, then re-raises
// the first captured panic on the caller.
func (j *join) wait() {
	j.pending.Wait()
	if j.panicv != nil {
		panic(j.panicv)
	}
}

// span is one unit of a fork: fn over [lo, hi) for For, or task for Do.
type span struct {
	lo, hi int
	fn     func(lo, hi int)
	task   func()
	join   *join
}

// run executes the span, capturing a panic instead of unwinding the
// helper goroutine (which would kill the whole process and leave the
// barrier hanging). Helpers and the inline path run spans identically.
func (s span) run() {
	defer func() {
		if r := recover(); r != nil {
			s.join.once.Do(func() { s.join.panicv = r })
		}
		s.join.pending.Done()
	}()
	if s.task != nil {
		s.task()
		return
	}
	s.fn(s.lo, s.hi)
}

// teamSize is the number of helpers, fixed when the package initialises.
var teamSize = runtime.GOMAXPROCS(0)

// maxSpans caps the spans of one For at the team size. With more spans
// than helpers the caller runs the surplus inline beside busy helpers,
// so more goroutines than CPUs share each barrier and it waits for the
// most loaded one. A one-helper team still cuts two spans, one for the
// helper and one for the caller.
var maxSpans = max(teamSize, 2)

// team is the hand-off channel of the helper team. Unbuffered: a send
// succeeds only while some helper is parked at the receive, i.e.
// genuinely idle.
var team = startTeam(teamSize)

// startTeam starts n helpers and returns once each of them has started,
// so the first fork of the process finds them at, or about to reach,
// the receive.
func startTeam(n int) chan span {
	ch := make(chan span)
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			started.Done()
			for s := range ch {
				s.run()
			}
		}()
	}
	started.Wait()
	return ch
}

// offer hands s to an idle helper, or runs it on the caller when every
// helper is busy.
func offer(s span) {
	select {
	case team <- s:
	default:
		s.run()
	}
}

// Pool is the width of the forks made through it. It owns no
// goroutines; every Pool shares the process-wide team.
type Pool struct {
	width  int
	closed atomic.Bool
}

// NewPool returns a Pool of width n; values of n below 1 are clamped to
// 1, so a worker count taken straight from a config is always safe. A
// Pool holds no resources and needs no Close.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{width: n}
}

// Size returns the width.
func (p *Pool) Size() int { return p.width }

func (p *Pool) checkOpen(op string) {
	if p.closed.Load() {
		panic("parallel: Pool." + op + " called after Close")
	}
}

// For runs fn over [lo, hi) split into one contiguous span per unit of
// width, but no more spans than the team has helpers, and returns when
// every span has completed (a barrier). fn must
// be safe to run concurrently on disjoint spans. Empty ranges return
// immediately. Calling For on a closed Pool panics with a diagnostic.
//
// Spans that find no idle helper run inline on the caller, so nested
// For calls degrade to sequential execution instead of deadlocking. A
// panic in any span — handed off or inline — is captured, the barrier
// completes, and the first panic value is re-raised on the caller.
func (p *Pool) For(lo, hi int, fn func(lo, hi int)) {
	p.checkOpen("For")
	n := hi - lo
	if n <= 0 {
		return
	}
	w := min(p.width, maxSpans, n)
	if w == 1 {
		fn(lo, hi)
		return
	}
	j := new(join)
	j.pending.Add(w)
	chunk, rem := n/w, n%w
	start := lo
	for i := 0; i < w; i++ {
		end := start + chunk
		if i < rem {
			end++
		}
		offer(span{lo: start, hi: end, fn: fn, join: j})
		start = end
	}
	j.wait()
}

// Each runs fn(i) for every i in [0, n), split into spans like For, and
// returns when all calls have completed. It is the per-item convenience
// form used by batch layers that process one independent request per
// index.
func (p *Pool) Each(n int, fn func(i int)) {
	p.For(0, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs left and right as the two tasks of one fork and returns when
// both are done: the "#pragma parallel task … task wait" structure of
// the paper's recursive algorithms. A Pool of width 1 runs left then
// right on the caller. Panics reach the caller of Do like those of For.
func (p *Pool) Do(left, right func()) {
	p.checkOpen("Do")
	if p.width == 1 {
		left()
		right()
		return
	}
	j := new(join)
	j.pending.Add(2)
	offer(span{task: left, join: j})
	offer(span{task: right, join: j})
	j.wait()
}

// Close marks the Pool as finished; it releases nothing. Later use of
// the Pool, like a second Close, panics with a diagnostic.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		panic("parallel: Pool closed twice")
	}
}
