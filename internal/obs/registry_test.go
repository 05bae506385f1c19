package obs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestRegistryValueBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(41)
	g := r.Gauge("bytes")
	g.Add(10)
	g.Add(-3)
	if c.Load() != 42 || g.Load() != 7 {
		t.Fatalf("counter = %d, gauge = %d; want 42, 7", c.Load(), g.Load())
	}
	want := Values{{"bytes", KindGauge, 7}, {"hits", KindCounter, 42}}
	if got := r.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
}

func TestRegistryStablePointersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits")
	if r.Counter("hits") != a {
		t.Fatal("re-resolving a name returned a different counter")
	}
	a.Add(3)
	r.Counter("misses").Inc()
	snap := r.Snapshot()
	if snap["hits"] != 3 || snap["misses"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Snapshot is a copy: mutating it must not touch the registry.
	snap["hits"] = 999
	if r.Counter("hits").Load() != 3 {
		t.Fatal("snapshot aliases the registry")
	}
	if got, want := r.Values().String(), "hits=3 misses=1"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestRegistryKindIsFixed: a name keeps the kind it was first
// registered with; asking for it as the other kind is a programming
// error, not a silent second value.
func TestRegistryKindIsFixed(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inflight")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge name as a counter did not panic")
		}
	}()
	r.Counter("inflight")
}

func TestValuesMerge(t *testing.T) {
	a := Values{{"cache_bytes", KindGauge, 5}, {"cache_hits", KindCounter, 2}}
	b := Values{{"cache_hits", KindCounter, 3}, {"server_requests", KindCounter, 1}}
	want := Values{{"cache_bytes", KindGauge, 5}, {"cache_hits", KindCounter, 5}, {"server_requests", KindCounter, 1}}
	if got := a.Merge(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	if got := b.Merge(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge is not commutative: %v", got)
	}
	if a[1].N != 2 {
		t.Fatal("Merge mutated its receiver")
	}
}

// TestRegistrySnapshotAtomicUnderWriters is the -race regression test
// for the snapshot paths: Snapshot and Values race against counter and
// gauge writers. Every value read goes through atomic.Int64.Load, so
// the race detector stays silent and no torn value can be observed;
// the final quiescent snapshot must be exact.
func TestRegistrySnapshotAtomicUnderWriters(t *testing.T) {
	r := NewRegistry()
	const writers, perW = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers run until the writers finish.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if v := snap["hot"]; v < 0 || v > writers*perW {
					t.Errorf("snapshot observed impossible value %d", v)
					return
				}
				_ = r.Values().String()
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				r.Counter("hot").Inc()
				r.Gauge(fmt.Sprintf("gauge_%d", g%2)).Add(1)
			}
		}(g)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	snap := r.Snapshot()
	if got := snap["hot"]; got != writers*perW {
		t.Fatalf("quiescent snapshot = %d, want %d", got, writers*perW)
	}
	if got := snap["gauge_0"] + snap["gauge_1"]; got != writers*perW {
		t.Fatalf("quiescent gauges sum to %d, want %d", got, writers*perW)
	}
}

// TestRegistryConcurrent hammers counter resolution and increments from
// many goroutines; run under -race via make test-race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own_%d", g%4)).Inc()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != goroutines*perG {
		t.Fatalf("shared = %d, want %d", got, goroutines*perG)
	}
	total := int64(0)
	for name, v := range r.Snapshot() {
		if name != "shared" {
			total += v
		}
	}
	if total != goroutines*perG {
		t.Fatalf("per-goroutine counters sum to %d, want %d", total, goroutines*perG)
	}
}
