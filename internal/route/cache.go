package route

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// cacheKey identifies one cached route computation. The cost generation is
// part of the key, so an entry computed under old costs can never match a
// query on a newer snapshot: correctness rests on the key alone. Memory
// does not: every cost-changing publish retires the superseded generation
// from the cache (routeCache.retire), and put refuses keys older than the
// shard's generation, so dead entries neither linger nor come back.
type cacheKey struct {
	from, to graph.NodeID
	algo     core.Algorithm
	weight   float64
	frontier search.FrontierKind
	gen      uint64
}

// hash mixes the key fields (fnv-style multiply-xor) to pick a shard.
func (k cacheKey) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(uint32(k.from)))
	mix(uint64(uint32(k.to)))
	mix(uint64(k.algo))
	mix(math.Float64bits(k.weight))
	mix(uint64(k.frontier))
	mix(k.gen)
	return h
}

// cacheEntry is one resident route. Entries are immutable once linked
// into a shard: an update replaces the element's entry wholesale rather
// than editing the resident route, so a concurrent get never observes a
// half-written value. The route's node slice is shared with the caller
// that computed it and with every caller a hit serves: routes are
// read-only once computed.
type cacheEntry struct {
	key   cacheKey
	route core.Route
}

// cacheShard is an independently locked LRU segment; sharding keeps lock
// hold times short so parallel readers rarely contend on the same shard.
type cacheShard struct {
	mu    sync.Mutex
	table map[cacheKey]*list.Element
	order *list.List // front = most recently used
	cap   int
	// gen is the oldest cost generation the shard accepts: the generation
	// of the last retire. Every resident key carries it.
	gen uint64
}

// routeCache is the sharded LRU behind Service.ComputeCtx.
type routeCache struct {
	shards [cacheShardCount]cacheShard
	// evictions, when set, counts LRU evictions for the telemetry layer.
	evictions *telemetry.Counter
	// retired, when set, counts entries dropped by retire, apart from
	// LRU evictions.
	retired *telemetry.Counter
}

const (
	cacheShardCount = 16
	// defaultCacheCapacity bounds total resident routes across all shards.
	defaultCacheCapacity = 4096
)

func newRouteCache(capacity int) *routeCache {
	if capacity < cacheShardCount {
		capacity = cacheShardCount
	}
	c := &routeCache{}
	per := capacity / cacheShardCount
	for i := range c.shards {
		c.shards[i].table = make(map[cacheKey]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].cap = per
	}
	return c
}

func (c *routeCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.hash()%cacheShardCount]
}

// get returns the cached route for k, if resident. The route's node
// slice is shared, not copied: callers must treat it as read-only.
func (c *routeCache) get(k cacheKey) (core.Route, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.table[k]
	if !ok {
		return core.Route{}, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*cacheEntry).route, true
}

// put stores rt under k, sharing its node slice, and evicts the shard's
// least recently used entry when full. A key older than the shard's generation
// is refused: it comes from a reader still on a superseded snapshot, and
// no query will ever ask for it again.
func (c *routeCache) put(k cacheKey, rt core.Route) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if k.gen < s.gen {
		return
	}
	if el, ok := s.table[k]; ok {
		el.Value = &cacheEntry{key: k, route: rt}
		s.order.MoveToFront(el)
		return
	}
	for s.order.Len() >= s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.table, oldest.Value.(*cacheEntry).key)
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
	s.table[k] = s.order.PushFront(&cacheEntry{key: k, route: rt})
}

// retire empties every shard and raises its generation to gen, so the
// cache holds nothing a query on the snapshot of generation gen cannot
// use. Each shard gets a fresh table and list rather than a cleared one:
// a cleared Go map keeps its buckets, a fresh one lets them be collected.
func (c *routeCache) retire(gen uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := s.order.Len()
		if n > 0 {
			s.table = make(map[cacheKey]*list.Element)
			s.order = list.New()
		}
		s.gen = gen
		s.mu.Unlock()
		if c.retired != nil {
			c.retired.Add(uint64(n))
		}
	}
}

// len reports total resident entries (tests and stats).
func (c *routeCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].order.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}
