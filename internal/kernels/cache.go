package kernels

import (
	"container/list"
	"sync"

	"gpurel/internal/asm"
	"gpurel/internal/device"
)

// CacheKey identifies a cached runner: workload, device, and
// optimization level. The device is part of the key because one cache
// may serve campaigns against several architectures.
type CacheKey struct {
	Code   string
	Device string
	Opt    asm.OptLevel
}

// Cache shares built Runner instances across callers. A runner is
// expensive twice over — the golden run that builds it costs more than
// most campaigns' injection work, and its snapshots and sub-launch
// images hold tens of megabytes — so the study and the campaign daemon
// build each key at most once per residency: concurrent callers for the
// same key block on the one build.
//
// A positive budget makes the cache a byte-budgeted LRU: once the
// MemoryFootprint sum of finished runners exceeds it, least-recently-
// used entries are evicted. A budget of 0 never evicts. Eviction only
// drops the cache's reference: callers already holding the runner keep
// using it (runners are immutable after the golden run), and the memory
// is reclaimed when they finish.
//
// The cache also owns the launch-analysis memo its runners draw
// Runner.Analyses from, so each distinct (program, geometry) pair is
// analyzed once per cache. The memo lives as long as the cache and is
// not charged against the budget: it fills only when a static consumer
// asks, after the build.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	lru     *list.List // of *cacheEntry; front = most recently used
	entries map[CacheKey]*cacheEntry
	memo    *analysisMemo

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key  CacheKey
	elem *list.Element
	size int64 // 0 until the build completes

	once sync.Once
	r    *Runner
	err  error
}

// NewCache returns a cache with the given byte budget (0: no eviction).
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		lru:     list.New(),
		entries: make(map[CacheKey]*cacheEntry),
		memo:    newAnalysisMemo(),
	}
}

// Get returns the runner for (name, dev, opt), building it with build —
// golden run included — on first use.
func (c *Cache) Get(name string, build Builder, dev *device.Device, opt asm.OptLevel) (*Runner, error) {
	key := CacheKey{Code: name, Device: dev.Name, Opt: opt}
	c.mu.Lock()
	ent := c.entries[key]
	if ent != nil {
		c.lru.MoveToFront(ent.elem)
		c.hits++
	} else {
		ent = &cacheEntry{key: key}
		ent.elem = c.lru.PushFront(ent)
		c.entries[key] = ent
		c.misses++
	}
	c.mu.Unlock()

	ent.once.Do(func() {
		ent.r, ent.err = newRunner(name, build, dev, opt, c.memo)
		c.mu.Lock()
		defer c.mu.Unlock()
		if ent.err != nil {
			// A failed build must not pin a dead entry (or poison
			// retries after a transient failure).
			c.drop(ent)
			return
		}
		ent.size = int64(ent.r.MemoryFootprint())
		c.used += ent.size
		c.evictLocked()
	})
	return ent.r, ent.err
}

// evictLocked removes finished entries from the cold end until the
// budget holds, never evicting entries whose build is still in flight
// (size 0) and always keeping at least one finished entry resident.
func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		var victim *cacheEntry
		finished := 0
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cacheEntry); e.size > 0 {
				if victim == nil {
					victim = e
				}
				finished++
			}
		}
		if finished <= 1 {
			return
		}
		c.drop(victim)
		c.evictions++
	}
}

// drop unlinks an entry. Callers hold c.mu.
func (c *Cache) drop(e *cacheEntry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.lru.Remove(e.elem)
	c.used -= e.size
}

// Stats returns the cache counters.
func (c *Cache) Stats() (hits, misses, evictions uint64, usedBytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.used, len(c.entries)
}
