package server

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"urel/internal/core"
	"urel/internal/engine"
	"urel/internal/sqlparse"
)

// planCache is a bounded LRU of statements keyed on normalized SQL.
// Each entry holds the parsed statement and, per catalog, the optimized
// physical plan of that catalog's current snapshot, so a repeated
// statement skips parsing, translation and optimization.
//
// A plan is run only against the snapshot it was planned on: it refers
// to that snapshot's partitions, memtable rows and tombstones, and
// carries the segments its selections pruned. The cache holds the plans
// of one snapshot per catalog, and the first query that reads a catalog
// at another snapshot (after a commit, a flush, a compaction or a
// replicated epoch) drops them all, so no superseded snapshot is kept
// alive past that query. Plans are immutable once Optimize returns them
// (engine.Build only reads them), so concurrent executions share one.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List
	snaps   map[string]*snapPlans // catalog → the plans of one snapshot

	hits   atomic.Uint64
	misses atomic.Uint64
}

type planEntry struct {
	key    string
	parsed *sqlparse.Parsed
}

// snapPlans holds one catalog's cached plans, all planned on db, keyed
// like the entries. A plan is kept only while its statement's entry is.
type snapPlans struct {
	db    *core.UDB
	plans map[string]*preparedPlan
}

// preparedPlan is a statement's optimized physical plan and the layout
// of the representation it produces.
type preparedPlan struct {
	plan engine.Plan
	lay  *core.ULayout
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: map[string]*list.Element{}, lru: list.New(),
		snaps: map[string]*snapPlans{}}
}

// normalizeSQL collapses whitespace runs to single spaces — but only
// outside single-quoted string literals, whose exact bytes are data
// (collapsing them would both rewrite constants and collide distinct
// statements onto one cache key). Case is preserved: identifiers are
// matched case-sensitively against the schema.
func normalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				// A doubled quote ('') re-enters on the next byte.
				inStr = false
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			pendingSpace = true
			continue
		}
		if pendingSpace && b.Len() > 0 {
			b.WriteByte(' ')
		}
		pendingSpace = false
		if c == '\'' {
			inStr = true
		}
		b.WriteByte(c)
	}
	return b.String()
}

// lookup returns the statement sql (parsed, or served from the cache)
// under its cache key, and its cached plan on db, the current snapshot
// of catalog, or nil. A lookup that finds a plan is a hit; any other is
// a miss. When db is not the snapshot the catalog's plans were made on,
// they are dropped.
func (c *planCache) lookup(sql, catalog string, db *core.UDB) (string, *sqlparse.Parsed, *preparedPlan, error) {
	key := normalizeSQL(sql)
	c.mu.Lock()
	sp := c.snaps[catalog]
	if sp == nil || sp.db != db {
		sp = &snapPlans{db: db, plans: map[string]*preparedPlan{}}
		c.snaps[catalog] = sp
	}
	parsed, prep := c.cachedLocked(key), sp.plans[key]
	c.mu.Unlock()
	if prep != nil {
		c.hits.Add(1)
		return key, parsed, prep, nil
	}
	c.misses.Add(1)
	if parsed != nil {
		return key, parsed, nil, nil
	}
	parsed, err := c.parseMiss(key, sql)
	return key, parsed, nil, err
}

// parse returns the statement sql, parsed or served from the cache. It
// counts neither a hit nor a miss: no plan is asked for (a coordinator
// catalog plans nothing itself).
func (c *planCache) parse(sql string) (*sqlparse.Parsed, error) {
	key := normalizeSQL(sql)
	c.mu.Lock()
	parsed := c.cachedLocked(key)
	c.mu.Unlock()
	if parsed != nil {
		return parsed, nil
	}
	return c.parseMiss(key, sql)
}

// cachedLocked returns the parse cached under key, or nil, and marks it
// recently used. c.mu is held.
func (c *planCache) cachedLocked(key string) *sqlparse.Parsed {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).parsed
}

// parseMiss parses sql and caches it under key. The original text is
// what gets parsed; normalization only forms the key.
func (c *planCache) parseMiss(key, sql string) (*sqlparse.Parsed, error) {
	parsed, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; !dup {
		c.entries[key] = c.lru.PushFront(&planEntry{key: key, parsed: parsed})
		for c.lru.Len() > c.cap {
			el := c.lru.Back()
			c.lru.Remove(el)
			evicted := el.Value.(*planEntry).key
			delete(c.entries, evicted)
			for _, sp := range c.snaps {
				delete(sp.plans, evicted)
			}
		}
	}
	return parsed, nil
}

// keep caches prep, planned on db, as the plan of the statement under
// key on catalog — unless the catalog's plans have since moved to
// another snapshot, or the statement has left the cache.
func (c *planCache) keep(key, catalog string, db *core.UDB, prep *preparedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp := c.snaps[catalog]; sp != nil && sp.db == db && c.entries[key] != nil {
		sp.plans[key] = prep
	}
}

// planCacheStats is the /stats view of the cache: hits are executions
// that reused a cached physical plan.
type planCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

func (c *planCache) stats() planCacheStats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return planCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
