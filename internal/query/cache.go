package query

import (
	"container/list"
	"context"
	"sync"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/core"
	"semilocal/internal/obs"
	"semilocal/internal/store"
)

// cacheKey identifies one cached session: the input pair alone. A
// pair's kernel is unique — every algorithm computes the same seaweed
// permutation (the store's all-configs differential test pins this) —
// so the solve configuration is not part of the key. The full input
// strings are kept (not just a hash of them) so a hash collision can
// never serve the wrong kernel.
type cacheKey struct {
	a, b string
}

// flight is one in-progress solve that concurrent requests for the same
// key attach to instead of solving again (singleflight). cfg is the
// first requester's configuration: it decides how the miss is solved.
type flight struct {
	done chan struct{} // closed when sess/err are set
	cfg  core.Config
	sess *Session
	err  error
}

// entry is one resident cached session.
type entry struct {
	key  cacheKey
	sess *Session
}

// cache is the LRU session cache with singleflight dedup: one lock,
// one map of resident sessions, one recency list, and one global
// capacity. When a persistent store tier is attached, it sits under
// the LRU as a write-through second tier: the singleflight spans both
// tiers, so at most one goroutine per key reads the store or solves.
type cache struct {
	mu       sync.Mutex
	resident map[cacheKey]*list.Element // values are *entry
	lru      *list.List                 // front = most recently used
	inflight map[cacheKey]*flight
	capacity int

	solve func(a, b []byte, cfg core.Config) (*core.Kernel, error)
	rec   *obs.Recorder
	inj   *chaos.Injector
	tier  *storeTier // nil when no persistent store is configured

	hits      *obs.Counter // request served by a resident session
	misses    *obs.Counter // request started a solve
	deduped   *obs.Counter // request joined another request's solve
	evictions *obs.Counter // resident session dropped by LRU pressure
	bytes     *obs.Gauge   // resident session bytes
}

func newCache(capacity int, reg *obs.Registry, rec *obs.Recorder, inj *chaos.Injector, tier *storeTier) *cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &cache{
		resident:  make(map[cacheKey]*list.Element),
		lru:       list.New(),
		inflight:  make(map[cacheKey]*flight),
		capacity:  capacity,
		solve:     core.Solve,
		rec:       rec,
		inj:       inj,
		tier:      tier,
		hits:      reg.Counter("cache_hits"),
		misses:    reg.Counter("cache_misses"),
		deduped:   reg.Counter("cache_deduped"),
		evictions: reg.Counter("cache_evictions"),
		bytes:     reg.Gauge("cache_bytes"),
	}
	if rec != nil || inj != nil {
		c.solve = func(a, b []byte, cfg core.Config) (*core.Kernel, error) {
			return core.SolveInjected(a, b, cfg, rec, inj)
		}
	}
	return c
}

// acquire returns the session for key, solving at most once per key no
// matter how many goroutines ask concurrently; a miss is solved under
// cfg, a hit ignores it. ctx bounds only this caller's wait: the solve
// itself runs on its own goroutine and always completes and caches its
// result, even if every waiter gives up (kernel algorithms are not
// interruptible mid-DP, and finishing the work keeps it amortizable).
// Detaching the solve from the caller is also what makes acquire
// deadlock-free when callers are pool workers: a worker blocked on a
// flight never holds up the solver it is waiting for, because solvers
// do not need a worker slot.
func (c *cache) acquire(ctx context.Context, key cacheKey, cfg core.Config) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d := c.inj.At(chaos.PointAcquire); d.Fault != chaos.FaultNone {
		switch d.Fault {
		case chaos.FaultLatency:
			time.Sleep(d.Latency)
		case chaos.FaultCancel:
			// Behave exactly as if the caller's context had been
			// cancelled on entry: the typed error, no partial work.
			return nil, context.Canceled
		case chaos.FaultEvict:
			c.evictAll(nil)
		}
	}
	// cache_hit / cache_miss histograms split acquire latency by
	// outcome: a hit is a map lookup under the cache lock, a miss (or a
	// dedup join) waits for the solve. The clock is read only when
	// tracing is on.
	var t0 time.Time
	traced := c.rec.Enabled()
	if traced {
		t0 = time.Now()
	}

	c.mu.Lock()
	if el, ok := c.resident[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Inc()
		if traced {
			c.rec.Observe(obs.StageCacheHit, time.Since(t0))
		}
		return el.Value.(*entry).sess, nil
	}
	fl, joined := c.inflight[key]
	if !joined {
		fl = &flight{done: make(chan struct{}), cfg: cfg}
		c.inflight[key] = fl
	}
	c.mu.Unlock()
	if joined {
		c.deduped.Inc()
	} else {
		c.misses.Inc()
		go c.runFlight(key, fl)
	}
	select {
	case <-fl.done:
		if traced {
			c.rec.Observe(obs.StageCacheMiss, time.Since(t0))
		}
		return fl.sess, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runFlight fills one flight — from the persistent store when it holds
// the kernel, by solving under fl.cfg otherwise — publishes the session
// into the LRU (evicting the least recently used past capacity), and
// releases every waiter. The store key is hashed once per flight and
// shared by the lookup and the append.
func (c *cache) runFlight(key cacheKey, fl *flight) {
	a, b := []byte(key.a), []byte(key.b)
	var sk store.Key
	if c.tier != nil {
		sk = store.KeyOf(a, b)
	}
	k := c.tier.lookup(sk)
	if k == nil {
		var err error
		k, err = c.solve(a, b, fl.cfg)
		if err != nil {
			fl.err = err
		} else {
			c.tier.publish(sk, k)
		}
	}
	if k != nil {
		psp := c.rec.Start(obs.StagePrepare)
		fl.sess = NewSession(k)
		psp.End()
	}

	storm := false
	if d := c.inj.At(chaos.PointPublish); d.Fault != chaos.FaultNone {
		switch d.Fault {
		case chaos.FaultLatency:
			time.Sleep(d.Latency)
		case chaos.FaultEvict:
			storm = true
		}
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.sess != nil {
		c.resident[key] = c.lru.PushFront(&entry{key: key, sess: fl.sess})
		c.bytes.Add(int64(fl.sess.MemoryBytes()))
		for c.lru.Len() > c.capacity {
			c.drop(c.lru.Back())
		}
	}
	c.mu.Unlock()
	if storm {
		// Eviction storm: flush every other resident session, keeping
		// only the one just published — the worst-case cold cache a
		// chaos run forces right after paying for a solve.
		c.evictAll(&key)
	}
	close(fl.done)
}

// drop evicts one resident element. The caller holds c.mu.
func (c *cache) drop(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.resident, e.key)
	c.bytes.Add(-int64(e.sess.MemoryBytes()))
	c.evictions.Inc()
}

// evictAll drops every resident session except *keep (when non-nil),
// counting each drop as an eviction. Evicted sessions stay valid for
// holders; only future acquires re-solve.
func (c *cache) evictAll(keep *cacheKey) {
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if keep == nil || el.Value.(*entry).key != *keep {
			c.drop(el)
		}
		el = next
	}
	c.mu.Unlock()
}

// len reports the number of resident sessions.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
