package store

import (
	"container/list"
	"sync"
)

// SegCache is a shared, size-bounded LRU cache of decoded segments.
// One cache is typically shared by every open partition of a serving
// process, so concurrent queries over the same cold data decode each
// segment once instead of once per query. All methods are safe for
// concurrent use.
//
// Concurrent misses on the same segment are coalesced (singleflight):
// the first reader decodes, the rest wait for the published result.
// Load errors are returned to every waiter but never cached, so a
// transient I/O failure does not poison the entry.
type SegCache struct {
	mu       sync.Mutex
	capBytes int64
	size     int64
	entries  map[segKey]*list.Element
	lru      *list.List // front = most recently used
	loading  map[segKey]*segLoad
	// closed records invalidated handle ids so a load that was in
	// flight when its handle closed is not inserted afterwards (handle
	// ids are never reused, so such an entry could never be hit and
	// would pin its bytes until capacity eviction).
	closed map[uint64]struct{}

	hits      uint64
	misses    uint64
	evictions uint64
}

// segKey identifies one segment of one open partition handle.
type segKey struct {
	handle uint64
	seg    int
}

type segEntry struct {
	key  segKey
	seg  *segment
	cost int64
}

// segLoad is an in-flight decode other readers wait on.
type segLoad struct {
	done chan struct{}
	seg  *segment
	err  error
}

// NewSegCache creates a cache bounded to roughly capBytes of decoded
// segment memory. capBytes <= 0 disables caching entirely (every
// lookup is a miss and nothing is retained); callers can pass the
// result to OpenCached unconditionally.
func NewSegCache(capBytes int64) *SegCache {
	return &SegCache{
		capBytes: capBytes,
		entries:  map[segKey]*list.Element{},
		lru:      list.New(),
		loading:  map[segKey]*segLoad{},
		closed:   map[uint64]struct{}{},
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	CapBytes  int64  `json:"cap_bytes"`
}

// Stats snapshots the cache counters.
func (c *SegCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.size,
		CapBytes:  c.capBytes,
	}
}

// disabled reports whether the cache retains nothing (nil, or created
// with no capacity): every read through it decodes.
func (c *SegCache) disabled() bool { return c == nil || c.capBytes <= 0 }

// getOrLoad returns the cached segment for key, or runs load (at most
// once per key across concurrent callers) and caches its result.
// The returned hit flag reports whether this caller avoided the
// fetch+decode — a cache hit proper, or a ride on another goroutine's
// in-flight load.
func (c *SegCache) getOrLoad(key segKey, load func() (*segment, error)) (seg *segment, hit bool, err error) {
	if c.disabled() {
		seg, err = load()
		return seg, false, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			seg := el.Value.(*segEntry).seg
			c.mu.Unlock()
			return seg, true, nil
		}
		if fl, ok := c.loading[key]; ok {
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, false, fl.err
			}
			// The loader published into the cache; loop to take the hit
			// path (or reload if it was already evicted under pressure).
			if fl.seg != nil {
				return fl.seg, true, nil
			}
			continue
		}
		fl := &segLoad{done: make(chan struct{})}
		c.loading[key] = fl
		c.misses++
		c.mu.Unlock()

		seg, err := load()
		fl.seg, fl.err = seg, err
		c.mu.Lock()
		delete(c.loading, key)
		if err == nil {
			c.insert(key, seg)
		}
		c.mu.Unlock()
		close(fl.done)
		return seg, false, err
	}
}

// insert adds a decoded segment and evicts from the cold end until the
// cache fits its budget. Caller holds c.mu.
func (c *SegCache) insert(key segKey, seg *segment) {
	if _, gone := c.closed[key.handle]; gone {
		return
	}
	if _, dup := c.entries[key]; dup {
		return
	}
	cost := segmentCost(seg)
	if cost > c.capBytes {
		// A segment larger than the whole budget is served but never
		// retained (retaining it would just evict everything else).
		return
	}
	c.entries[key] = c.lru.PushFront(&segEntry{key: key, seg: seg, cost: cost})
	c.size += cost
	for c.size > c.capBytes {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*segEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.size -= e.cost
		c.evictions++
	}
}

// invalidateHandle drops every entry of one handle (called on Close so
// a long-lived shared cache does not pin decoded segments of closed
// files).
func (c *SegCache) invalidateHandle(handle uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed[handle] = struct{}{}
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*segEntry)
		if e.key.handle == handle {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.size -= e.cost
		}
	}
}

// segmentCost is the resident size of a decoded segment, read off its
// vectors' lengths: the int64 slab of descriptor and tid columns, 8 bytes
// per int, bool or float cell, 1 per null mark, a string cell's 16-byte
// header and its bytes, a mixed cell's 40-byte Value and its string's
// bytes; never below 1.
func segmentCost(seg *segment) int64 {
	cost := 8 * int64(len(seg.tid)) * int64(2*len(seg.dvar)+1)
	for ci := range seg.cols {
		v := &seg.cols[ci]
		cost += 8*int64(len(v.Ints)+len(v.Floats)) + int64(len(v.Nulls)) + 16*int64(len(v.Strs)) + 40*int64(len(v.Vals))
		for _, x := range v.Strs {
			cost += int64(len(x))
		}
		for _, x := range v.Vals {
			cost += int64(len(x.S))
		}
	}
	return max(cost, 1)
}
