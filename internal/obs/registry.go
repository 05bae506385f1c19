package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is how a registry value moves. It is fixed when the value is
// registered and carried into the metrics exposition, so monitoring can
// take rates of counters and must not take them of gauges.
type Kind uint8

const (
	// KindCounter values only grow: cache hits, requests, appends.
	KindCounter Kind = iota
	// KindGauge values move both ways: resident bytes, in-flight
	// requests.
	KindGauge
)

func (k Kind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Counter is a monotonic registry value. The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d, which must not be negative.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a registry value that moves both ways. The zero value is
// ready to use.
type Gauge struct{ v atomic.Int64 }

// Add adds d (negative deltas allowed).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a concurrency-safe set of named counters and gauges: the
// serving-layer counters of the query engine, its store tier and the
// HTTP server. Values register lazily on first use, so a layer that
// never runs adds nothing to the snapshot. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	values map[string]any // *Counter or *Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{values: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on
// first use. The returned pointer is stable: hot paths resolve it once
// and keep it. Registering one name as both a counter and a gauge is a
// programming error and panics.
func (r *Registry) Counter(name string) *Counter { return register[Counter](r, name) }

// Gauge returns the gauge registered under name, creating it on first
// use; see Counter.
func (r *Registry) Gauge(name string) *Gauge { return register[Gauge](r, name) }

func register[T Counter | Gauge](r *Registry, name string) *T {
	r.mu.RLock()
	v, ok := r.values[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if v, ok = r.values[name]; !ok {
			v = new(T)
			r.values[name] = v
		}
		r.mu.Unlock()
	}
	t, ok := v.(*T)
	if !ok {
		panic(fmt.Sprintf("obs: %q registered as both a counter and a gauge", name))
	}
	return t
}

// Value is one registry value at snapshot time.
type Value struct {
	Name string
	Kind Kind
	N    int64
}

// Values is a point-in-time copy of a registry, sorted by name.
type Values []Value

// Values returns a sorted copy of every registered value. Each value is
// read atomically, so a copy taken under concurrent writers never holds
// a torn value; quiescent copies are exact.
func (r *Registry) Values() Values {
	r.mu.RLock()
	out := make(Values, 0, len(r.values))
	for name, v := range r.values {
		switch v := v.(type) {
		case *Counter:
			out = append(out, Value{name, KindCounter, v.Load()})
		case *Gauge:
			out = append(out, Value{name, KindGauge, v.Load()})
		}
	}
	r.mu.RUnlock()
	out.sortByName()
	return out
}

// Snapshot returns the registry's values as a name → value map.
func (r *Registry) Snapshot() map[string]int64 { return r.Values().Map() }

func (vs Values) sortByName() { sort.Slice(vs, func(i, j int) bool { return vs[i].Name < vs[j].Name }) }

// Merge returns the name-wise sum of vs and o, sorted by name — the
// union of several registries, such as a server's tier counters and
// its engine's.
func (vs Values) Merge(o Values) Values {
	out := append(Values(nil), vs...)
	at := make(map[string]int, len(out))
	for i, v := range out {
		at[v.Name] = i
	}
	for _, v := range o {
		if i, ok := at[v.Name]; ok {
			out[i].N += v.N
			continue
		}
		out = append(out, v)
	}
	out.sortByName()
	return out
}

// Map returns the values as a name → value map.
func (vs Values) Map() map[string]int64 {
	m := make(map[string]int64, len(vs))
	for _, v := range vs {
		m[v.Name] = v.N
	}
	return m
}

// String renders the values as "name=value" pairs in name order, for
// logs and CLI summaries.
func (vs Values) String() string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s=%d", v.Name, v.N)
	}
	return strings.Join(parts, " ")
}
