package server

import (
	"container/list"
	"sync"

	"earthing"
	"earthing/internal/faultinject"
)

// postKey names one memoized post-processing field by its canonical
// parameters after defaults: kind "potential" or "step" with the raster
// NX, NY and Margin for /v1/raster, kind "safety" with stepRes for
// /v1/safety. Workers and Schedule stay out: the field is bit-identical at
// any width.
type postKey struct {
	kind    string
	nx, ny  int
	margin  float64
	stepRes float64
}

// memoField is one unit-GPR surface field over an entry's result: a
// *post.Raster for the raster kinds, a *post.VoltageField for safety. Bytes
// is its resident size, charged against the byte budget.
type memoField interface{ Bytes() int64 }

// postMemo is a memoized field under its key.
type postMemo struct {
	key   postKey
	field memoField
}

// maxPostMemos bounds the memos per entry. The byte budget alone cannot,
// because it may be switched off, and request parameters are unbounded.
const maxPostMemos = 8

// entry is one cached unit-GPR solve keyed by its canonical scenario key.
// bytes is the Footprint estimate charged against the byte budget at insert
// time (recomputing it at eviction would double-count a Result whose
// assembler lazily grew post-processing state). memos holds the surface
// fields computed over res, most recently used first; their bytes are
// charged on top.
type entry struct {
	key   string
	res   *earthing.Result
	bytes int64
	memos []postMemo
}

// charged is everything the entry holds against the byte budget.
func (e *entry) charged() int64 {
	n := e.bytes
	for _, m := range e.memos {
		n += m.field.Bytes()
	}
	return n
}

// lruCache is a bounded LRU of solved systems. A hit hands back the
// factorized, solved *earthing.Result — everything downstream (resistance,
// rasters, safety voltages) is pure post-processing over Sigma and the
// assembler, so a hit skips both matrix generation and the Cholesky solve
// entirely.
//
// Results are stored at unit GPR. Because the Galerkin system is linear in
// the imposed boundary potential (§2 of the paper), the response for any GPR
// is the cached solution scaled — one entry serves every fault level. The
// same holds one stage later: each entry also memoizes the unit-GPR surface
// fields that /v1/raster and /v1/safety computed over it (at most
// maxPostMemos, keyed by postKey), so a repeat of either request is the memo
// times the GPR, with no field sweep and no admission slot.
//
// The cache is bounded two ways: by entry count and by resident bytes
// (Result.Footprint plus memo bytes). The byte bound is the one that matters
// in production — a 64-entry cache of small survey grids is a few MiB while
// 64 interconnected systems can be GiBs — and the entry bound keeps the map
// from growing unbounded when every result is tiny. Memos leave with their
// entry, or when the entry is replaced.
//
// The cache is safe for concurrent use. Cached results and memos are shared
// across requests; callers must treat them as immutable (the post-processing
// engines only read Sigma and the assembler's precomputed element data).
type lruCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	resident   int64
	order      *list.List // front = most recently used; values are *entry
	items      map[string]*list.Element
}

// newLRUCache returns a cache bounded to maxEntries entries (maxEntries ≤ 0
// disables caching: every get misses and put is a no-op) and maxBytes
// resident bytes (maxBytes ≤ 0 leaves the byte bound off).
func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		items:      make(map[string]*list.Element),
	}
}

// get returns the cached result for key, promoting it to most recently used.
func (c *lruCache) get(key string) (*earthing.Result, bool) {
	faultinject.Fire(faultinject.CacheGet, 0, nil)
	if c.maxEntries <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry).res, true
}

// getPost returns the memoized field pk of the entry for key, promoting
// both the entry and the memo to most recently used.
func (c *lruCache) getPost(key string, pk postKey) (memoField, bool) {
	faultinject.Fire(faultinject.CacheGet, 0, nil)
	if c.maxEntries <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	for i, m := range e.memos {
		if m.key == pk {
			copy(e.memos[1:i+1], e.memos[:i])
			e.memos[0] = m
			c.order.MoveToFront(el)
			return m.field, true
		}
	}
	return nil, false
}

// put inserts (or refreshes) key, evicting least recently used entries while
// either bound is exceeded. A single result larger than the whole byte budget
// is not cached at all — admitting it would evict everything else and then
// thrash. Refreshing a key drops its memos: they were computed over the
// result being replaced.
func (c *lruCache) put(key string, res *earthing.Result) {
	if c.maxEntries <= 0 {
		return
	}
	fp := res.Footprint()
	if c.maxBytes > 0 && fp > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.resident += fp - e.charged()
		e.res, e.bytes, e.memos = res, fp, nil
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry{key: key, res: res, bytes: fp})
		c.resident += fp
	}
	c.evict()
}

// putPost attaches field, computed over res, as memo pk of the entry for
// key. It is a no-op when the entry is gone or now holds a
// different result, and when the entry with the memo would exceed the whole
// byte budget. Past maxPostMemos the least recently used memo is dropped.
func (c *lruCache) putPost(key string, res *earthing.Result, pk postKey, field memoField) {
	if c.maxEntries <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if e.res != res {
		return
	}
	for _, m := range e.memos {
		if m.key == pk {
			return
		}
	}
	n := field.Bytes()
	if c.maxBytes > 0 && e.charged()+n > c.maxBytes {
		return
	}
	if len(e.memos) == maxPostMemos {
		c.resident -= e.memos[maxPostMemos-1].field.Bytes()
		e.memos = e.memos[:maxPostMemos-1]
	}
	e.memos = append([]postMemo{{key: pk, field: field}}, e.memos...)
	c.resident += n
	c.order.MoveToFront(el)
	c.evict()
}

// evict drops least recently used entries, memos and all, while either bound
// is exceeded. The most recent entry always stays; put and putPost never let
// it exceed the byte budget alone. The caller holds c.mu.
func (c *lruCache) evict() {
	for c.order.Len() > 1 &&
		(c.order.Len() > c.maxEntries || (c.maxBytes > 0 && c.resident > c.maxBytes)) {
		tail := c.order.Back()
		e := tail.Value.(*entry)
		c.order.Remove(tail)
		delete(c.items, e.key)
		c.resident -= e.charged()
	}
}

// len reports the current number of cached systems.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// bytes reports the resident-byte estimate currently charged to the cache.
func (c *lruCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}
