package service

import (
	"container/list"
	"encoding/json"
	"sync"
)

// CachedResult is one cache slot: the fully rendered result payload of a
// completed job. Storing the encoded bytes (rather than re-marshalling per
// request) makes repeated hits byte-identical, which clients can rely on
// when diffing ε-sweep outputs, and storing them in the form they take
// inside a job envelope lets a hit splice them in without re-encoding.
type CachedResult struct {
	// Payload is the job's result JSON exactly as first produced, in
	// envelope form (envelopeForm): the bytes of the "result" field of
	// every job envelope that carries it.
	Payload json.RawMessage
	// Patterns is the pattern count (or sweep-point count) for stats.
	Patterns int
}

// Cache is a mutex-guarded LRU over completed job results, keyed by the
// job key (dataset + kind + canonical config + sweep epsilons). A capacity
// of zero disables caching entirely: Get always misses and Put drops.
type Cache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // key → element whose Value is *cacheEntry
	hits   int64
	misses int64
}

type cacheEntry struct {
	key string
	val CachedResult
}

// NewCache returns an LRU holding at most capacity results.
func NewCache(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached result for key, promoting it to most recently
// used, and records a hit or miss.
func (c *Cache) Get(key string) (CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return CachedResult{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores a result under key, evicting the least recently used entry
// when the cache is full. Re-putting an existing key refreshes its value
// and recency.
func (c *Cache) Put(key string, v CachedResult) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// CacheStats is the wire form of the cache counters.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
	Size     int     `json:"size"`
	Capacity int     `json:"capacity"`
}

// Stats snapshots the counters. HitRate is 0 before any lookup.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Hits: c.hits, Misses: c.misses, Size: c.ll.Len(), Capacity: c.cap}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}
