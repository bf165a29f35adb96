package engine

import (
	"fmt"
	"sort"
	"sync"

	"fraccascade/internal/catalog"
	"fraccascade/internal/obs"
	"fraccascade/internal/tree"
)

// entryCache is one shard's LRU entry-point cache. Each cached slot records
// that every query key in the half-open interval (lo, hi] enters the
// cascade at position pos of the entry node's augmented catalog — hi is the
// catalog key at pos and lo its predecessor, so the intervals of one node
// are disjoint and a hit reproduces exactly what the Step-1 cooperative
// binary search would compute. A hit therefore lets the search skip the
// top-of-skeleton entry rounds and pay a single verification step.
//
// Slots are keyed by the query-path prefix (the entry node, i.e. path[0])
// and looked up by key with a binary search over the node's interval list.
// Eviction is least-recently-used across the whole shard. The shard is
// frozen, so a filled slot stays valid for the engine's lifetime.
// Correctness never rests on that: the search re-validates the hinted
// position against the frozen catalog in O(1) and falls back to the full
// entry search if it fails (Answer.CacheStale).
type entryCache struct {
	mu      sync.Mutex
	cap     int
	clock   uint64
	size    int
	perNode map[tree.NodeID][]entrySlot

	hits, misses, evictions uint64

	// obs mirrors (nil-safe no-ops when no registry is attached): the
	// struct counters above stay the CacheStats ground truth; these export
	// the same increments under engine.shard.<i>.cache.* names.
	obsHits, obsMisses, obsEvictions *obs.Counter
}

// entrySlot caches one resolved entry interval (lo, hi] → pos.
type entrySlot struct {
	lo, hi  catalog.Key
	pos     int
	lastUse uint64
}

// CacheStats is a point-in-time snapshot of one shard's cache counters.
type CacheStats struct {
	// Hits and Misses count lookups; Evictions counts LRU evictions.
	Hits, Misses, Evictions uint64
	// Size is the current number of cached entry intervals.
	Size int
}

// HitRate returns Hits/(Hits+Misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// newEntryCache builds shard's cache. With a non-nil registry the counters
// are mirrored as metrics and the live size exported as a func gauge.
func newEntryCache(capacity int, r *obs.Registry, shard int) *entryCache {
	c := &entryCache{cap: capacity, perNode: make(map[tree.NodeID][]entrySlot)}
	if r != nil {
		prefix := fmt.Sprintf("engine.shard.%d.cache.", shard)
		c.obsHits = r.Counter(prefix + "hits")
		c.obsMisses = r.Counter(prefix + "misses")
		c.obsEvictions = r.Counter(prefix + "evictions")
		r.RegisterFunc(prefix+"size", func() int64 { return int64(c.statsSnapshot().Size) })
	}
	return c
}

// lookup returns the cached entry position for (node, y).
func (c *entryCache) lookup(node tree.NodeID, y catalog.Key) (int, bool) {
	if c == nil || c.cap <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := c.perNode[node]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].hi >= y })
	if i < len(slots) && slots[i].lo < y {
		c.clock++
		slots[i].lastUse = c.clock
		c.hits++
		c.obsHits.Inc()
		return slots[i].pos, true
	}
	c.misses++
	c.obsMisses.Inc()
	return 0, false
}

// insert caches (lo, hi] → pos for node, evicting the least-recently-used
// slot of the shard on overflow.
func (c *entryCache) insert(node tree.NodeID, lo, hi catalog.Key, pos int) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slots := c.perNode[node]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].hi >= hi })
	c.clock++
	if i < len(slots) && slots[i].hi == hi {
		slots[i] = entrySlot{lo: lo, hi: hi, pos: pos, lastUse: c.clock}
		return
	}
	slots = append(slots, entrySlot{})
	copy(slots[i+1:], slots[i:])
	slots[i] = entrySlot{lo: lo, hi: hi, pos: pos, lastUse: c.clock}
	c.perNode[node] = slots
	c.size++
	if c.size > c.cap {
		c.evictLRU()
	}
}

// evictLRU removes the globally least-recently-used slot. Linear in the
// cache size, which is bounded by the (small) capacity. Callers hold mu.
func (c *entryCache) evictLRU() {
	var victimNode tree.NodeID
	victimIdx := -1
	victimUse := c.clock + 1
	for node, slots := range c.perNode {
		for i := range slots {
			if slots[i].lastUse < victimUse {
				victimUse = slots[i].lastUse
				victimNode, victimIdx = node, i
			}
		}
	}
	if victimIdx < 0 {
		return
	}
	slots := c.perNode[victimNode]
	slots = append(slots[:victimIdx], slots[victimIdx+1:]...)
	if len(slots) == 0 {
		delete(c.perNode, victimNode)
	} else {
		c.perNode[victimNode] = slots
	}
	c.size--
	c.evictions++
	c.obsEvictions.Inc()
}

// statsSnapshot returns the current counters.
func (c *entryCache) statsSnapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Size: c.size}
}
