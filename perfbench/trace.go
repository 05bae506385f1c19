package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from the benchmark's own code: a span wraps one call into a
// layer's public function. Spans are kept in memory and written out
// when the run ends; a nil *tracer records nothing and reads no clock.

// span is one finished interval. Times are nanoseconds since the
// tracer started. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; End records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// start opens a span named "<layer>.<call>" under parent (0 for a root)
// for request req (0 when the span serves no request).
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// ID is the span's identifier for its children (0 when not tracing).
func (s openSpan) ID() int64 { return s.id }

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0)),
	})
	s.t.mu.Unlock()
}

// count is the number of spans recorded so far (0 when not tracing).
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Overlapping children (concurrent sub-calls) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf aggregates self time by layer: the mean self time per span
// and the span count.
type layerSelf struct {
	mean  time.Duration
	spans int
}

func selfByLayer(spans []span) map[string]layerSelf {
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	cnt := make(map[string]int)
	for _, s := range spans {
		l := layerOf(s.Name)
		sum[l] += self[s.ID]
		cnt[l]++
	}
	out := make(map[string]layerSelf, len(sum))
	for l, total := range sum {
		out[l] = layerSelf{mean: total / time.Duration(cnt[l]), spans: cnt[l]}
	}
	return out
}

// writeSpans writes the run's metadata and then the spans as JSON lines
// to path.
func writeSpans(path string, meta any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
