// Package servecache is the serving tier's result cache: a byte-budgeted
// LRU map from canonicalized request keys to encoded response bodies.
//
// The cache itself is deliberately dumb — it knows nothing about queries,
// datasets, or staleness. Correctness under mutation comes entirely from
// keying: the HTTP layer prefixes every key with the DB's process-unique
// instance ID (onex.DB.ID, so replacing a dataset under the same name
// orphans the old incarnation's entries) and its monotone mutation
// version (onex.DB.Version, so an entry computed before an AddSeries is
// structurally unreachable afterwards). Stale generations are never
// served; they simply stop being referenced and age out of the LRU under
// byte pressure. That design keeps the cache free of invalidation races:
// there is no "flush" step to order against the mutation.
//
// Keys are produced by CanonicalQuery / CanonicalAnalysis (key.go), which
// map semantically equal requests — field order, whitespace, resolvable
// defaults — onto one deterministic string while keeping requests that
// can produce different response bytes on distinct strings.
package servecache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// entryOverhead approximates the bookkeeping cost of one entry (map slot,
// list element, entry header) charged against the byte budget on top of
// the key and value payloads, so a budget of N bytes bounds real memory
// within a small constant factor even for many tiny entries.
const entryOverhead = 128

// Cache is a concurrency-safe LRU cache with a byte budget. The zero value
// is not usable; construct with New.
type Cache struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type entry struct {
	key string
	val []byte
}

// New builds a cache bounded to maxBytes of keys+values+overhead. A
// non-positive budget yields a cache that stores nothing (every Get
// misses), which lets callers keep one code path for "cache disabled".
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached value for key and marks it most recently used.
// The returned slice is shared with the cache and must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	val := el.Value.(*entry).val
	c.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores val under key (replacing any previous value) and evicts
// least-recently-used entries until the cache fits its byte budget again.
// Values larger than the whole budget are silently not stored.
func (c *Cache) Put(key string, val []byte) {
	size := entrySize(key, val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
		c.bytes += size
	}
	for c.bytes > c.maxBytes {
		c.evictOldest()
	}
}

// evictOldest removes the LRU entry. Callers hold c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= entrySize(e.key, e.val)
	c.evictions.Add(1)
}

func entrySize(key string, val []byte) int64 {
	return int64(len(key)) + int64(len(val)) + entryOverhead
}

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	Hits      int64 // Get calls answered from the cache
	Misses    int64 // Get calls that found nothing
	Evictions int64 // entries dropped by byte pressure
	Entries   int   // live entries
	Bytes     int64 // charged bytes (keys + values + overhead)
	MaxBytes  int64 // configured budget
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes, maxBytes := len(c.items), c.bytes, c.maxBytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  maxBytes,
	}
}
