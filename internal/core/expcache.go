package core

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// DefaultExpCacheCapacity is the expectation-cache bound NewDetector
// installs: at the paper deployment an armed entry (expectation + full
// log-PMF table) is ~80 KiB, so the default caps cache memory at tens of
// MiB while covering far more distinct claimed locations than the
// serving workload ("many sensors report against a handful of claimed
// positions") ever shows at once.
const DefaultExpCacheCapacity = 1024

// expCacheShards spreads the cache over independently locked shards so
// concurrent batch chunks do not serialize on one mutex. Power of two;
// modest because each shard holds capacity/shards entries.
const expCacheShards = 8

// maxPMFEntriesPerCache bounds the aggregate log-PMF table memory one
// cache may arm: 1<<23 float64 entries = 64 MiB. The per-expectation
// cap (maxPMFTableEntries) alone is not enough — a client-supplied
// deployment just under that cap times a full cache of recurring
// locations would otherwise pin GiBs. Locations whose arming would
// exceed the budget simply stay on the direct evaluation path until
// armed entries are evicted and their budget returns.
const maxPMFEntriesPerCache = 1 << 23

// ExpCacheBudget is a shared admission budget for expectation-cache
// memory, in bytes. One budget can back many detectors' caches (the
// serving pool installs a single budget across every detector it
// trains), so many small deployments and a few huge ones share one
// bound instead of each getting the same entry count. A budget with
// capacity 0 only accounts: reservations always succeed and InUse stays
// correct, which keeps the default behavior identical to an unbudgeted
// cache while still exporting the gauge. Safe for concurrent use.
type ExpCacheBudget struct {
	capacity atomic.Int64 // 0 = unlimited (account only)
	inUse    atomic.Int64
}

// NewExpCacheBudget returns a budget capped at bytes (0 = unlimited,
// accounting only).
func NewExpCacheBudget(bytes int64) *ExpCacheBudget {
	b := &ExpCacheBudget{}
	b.capacity.Store(bytes)
	return b
}

// SetCapacity replaces the byte cap (0 = unlimited). Already-resident
// entries are never evicted by a cap change; the new cap only gates
// future admissions.
func (b *ExpCacheBudget) SetCapacity(bytes int64) { b.capacity.Store(bytes) }

// Capacity returns the byte cap (0 = unlimited).
func (b *ExpCacheBudget) Capacity() int64 { return b.capacity.Load() }

// InUse returns the bytes currently reserved against the budget.
func (b *ExpCacheBudget) InUse() int64 { return b.inUse.Load() }

// tryReserve charges n bytes, rolling back and refusing if that would
// exceed a nonzero capacity. A nil budget admits everything for free.
func (b *ExpCacheBudget) tryReserve(n int64) bool {
	if b == nil {
		return true
	}
	if cap := b.capacity.Load(); cap > 0 {
		if b.inUse.Add(n) > cap {
			b.inUse.Add(-n)
			return false
		}
		return true
	}
	b.inUse.Add(n) // account-only mode
	return true
}

// release credits n bytes back.
func (b *ExpCacheBudget) release(n int64) {
	if b != nil {
		b.inUse.Add(-n)
	}
}

// expEntryOverheadBytes approximates the fixed per-entry cost charged
// against a budget beyond the G/Mu float data: the Expectation struct,
// two slice headers, and the map+LRU bookkeeping of its shard.
const expEntryOverheadBytes = 160

// expBytes is the admission cost of a resident expectation (without its
// PMF table, which is charged separately when armed).
func expBytes(e *Expectation) int64 {
	return int64(len(e.G)+len(e.Mu))*8 + expEntryOverheadBytes
}

// pmfBytes is the admission cost of an armed log-PMF table: the flat
// sample array plus one row header per group.
func pmfBytes(e *Expectation) int64 {
	return pmfCost(e)*8 + int64(len(e.G))*24
}

// expCache is a bounded, sharded LRU of *Expectation keyed by claimed
// location. It is the cross-request complement of the per-batch
// deduplication in CheckBatchInto: the g-table evaluation (and, for
// recurring locations, the log-PMF table) is paid once per location per
// residency, not once per request. Entries are immutable after insert
// apart from their internally synchronized PMF tables, so readers share
// them freely; evicted entries are left to the GC — they may still be
// in use by in-flight checks and must never be recycled.
//
// When a budget is installed, every insert reserves the entry's bytes
// and every PMF arming reserves the table's bytes; evictions credit
// both back. A location refused admission is still scored correctly —
// its expectation is computed and returned, just not cached — so a full
// budget degrades throughput, never correctness.
type expCache struct {
	hits, misses atomic.Uint64
	// pmfEntries tracks armed log-PMF table entries across the cache,
	// charged at arming time and credited back on eviction.
	pmfEntries  atomic.Int64
	capPerShard int
	budget      *ExpCacheBudget // nil = unbudgeted
	// armPMF is whether the detector's metric reads the log-PMF table
	// (only ProbMetric does); without it a reuse arms and charges none.
	armPMF bool
	// retired flips when the owning detector is evicted from the serving
	// pool: the sweep in retire() credits every resident reservation
	// back, and later inserts/armings charge nothing, so a cache that is
	// about to become garbage can never pin budget bytes — even with
	// in-flight checks still scoring through it.
	retired atomic.Bool
	shards  [expCacheShards]expShard
}

type expShard struct {
	mu sync.Mutex
	//lad:guardedby mu
	ent map[geom.Point]*list.Element
	//lad:guardedby mu
	lru list.List // front = most recently used; element values are *Expectation
}

func newExpCache(capacity int, budget *ExpCacheBudget, armPMF bool) *expCache {
	c := &expCache{capPerShard: (capacity + expCacheShards - 1) / expCacheShards, budget: budget, armPMF: armPMF}
	for i := range c.shards {
		c.shards[i].ent = make(map[geom.Point]*list.Element)
	}
	return c
}

// capacity is the entry bound, rounded up to a multiple of the shard
// count; newExpCache(c.capacity(), …) rebuilds a cache of the same size.
func (c *expCache) capacity() int { return c.capPerShard * expCacheShards }

func (c *expCache) shard(p geom.Point) *expShard {
	// SplitMix64-style mix of the coordinate bits; claimed locations are
	// arbitrary floats, so spread them rather than trusting their bits.
	h := math.Float64bits(p.X)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y)*0xbf58476d1ce4e5b9
	h ^= h >> 32
	return &c.shards[h&(expCacheShards-1)]
}

// get returns the cached expectation for le, computing and inserting it
// on a miss. On the first hit (= first reuse) it arms the log-PMF table
// when the metric reads one: a location seen once costs exactly what a
// fresh Check costs, a recurring one graduates to table-driven scoring.
func (c *expCache) get(model *deploy.Model, le geom.Point) *Expectation {
	if le.X != le.X || le.Y != le.Y {
		// A NaN key never equals itself, so it could be neither found
		// nor deleted: each insert would leak one map entry. Serve it
		// uncached.
		c.misses.Add(1)
		//lint:ignore noalloc NaN locations are never resident; each one is built fresh
		return NewExpectation(model, le)
	}
	s := c.shard(le)
	s.mu.Lock()
	if el, ok := s.ent[le]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*Expectation)
		if c.armPMF && e.uses.Add(1) == 1 {
			// Arm under the shard lock: eviction (which credits the
			// budget back) holds the same lock, so an entry can never be
			// armed and evicted concurrently. The table build itself
			// stays lazy — arming only installs the empty table.
			c.tryArmPMF(e)
		}
		s.mu.Unlock()
		c.hits.Add(1)
		return e
	}
	s.mu.Unlock()
	c.misses.Add(1)

	// Build outside the lock: the g-table evaluation is the expensive
	// part, and other locations on this shard must not queue behind it.
	//
	//lint:ignore noalloc cache-miss path: the expectation is built once and amortized across resident hits
	e := NewExpectation(model, le)

	s.mu.Lock()
	if el, ok := s.ent[le]; ok {
		// Lost a build race; adopt the canonical entry so every caller
		// shares one expectation (and one PMF table).
		s.lru.MoveToFront(el)
		adopted := el.Value.(*Expectation)
		s.mu.Unlock()
		return adopted
	}
	charged := false
	for !c.retired.Load() {
		if c.budget.tryReserve(expBytes(e)) {
			charged = true
			break
		}
		// The pool-wide byte budget is exhausted. Count-based eviction
		// below only runs after a successful insert, so without help the
		// resident set would freeze on the earliest-admitted locations
		// forever. Reclaim cold tails instead — this shard's first (its
		// lock is held), then a sweep of the sibling shards one lock at
		// a time (never two locks at once, so no ordering deadlock) —
		// and retry. Only when the whole cache has nothing left to give
		// is the expectation served uncached: the budget is then pinned
		// by OTHER detectors sharing it, which this cache must not touch.
		if c.evictTailLocked(s) {
			continue
		}
		s.mu.Unlock()
		freed := false
		for i := range c.shards {
			o := &c.shards[i]
			if o == s {
				continue
			}
			o.mu.Lock()
			freed = c.evictTailLocked(o)
			o.mu.Unlock()
			if freed {
				break
			}
		}
		s.mu.Lock()
		if el, ok := s.ent[le]; ok {
			// Lost an insert race while unlocked; adopt the winner.
			s.lru.MoveToFront(el)
			adopted := el.Value.(*Expectation)
			s.mu.Unlock()
			return adopted
		}
		if !freed {
			s.mu.Unlock()
			return e
		}
	}
	// A retired cache admits entries uncharged (the loop above falls
	// through without reserving); charged records whether the reservation
	// actually happened so eviction credits exactly what was reserved.
	e.charged = charged
	s.ent[le] = s.lru.PushFront(e)
	for s.lru.Len() > c.capPerShard {
		c.evictTailLocked(s)
	}
	s.mu.Unlock()
	return e
}

// evictTailLocked removes s's least-recently-used entry, crediting its
// budget charges back; false when the shard is empty. Caller holds s.mu.
//
//lad:requires s.mu
func (c *expCache) evictTailLocked(s *expShard) bool {
	oldest := s.lru.Back()
	if oldest == nil {
		return false
	}
	s.lru.Remove(oldest)
	ev := oldest.Value.(*Expectation)
	if ev.pmf.Load() != nil {
		c.pmfEntries.Add(-pmfCost(ev))
	}
	if ev.pmfCharged {
		c.budget.release(pmfBytes(ev))
		ev.pmfCharged = false
	}
	if ev.charged {
		c.budget.release(expBytes(ev))
		ev.charged = false
	}
	delete(s.ent, ev.Loc)
	return true
}

// pmfCost is the entry count an armed table costs against the budget.
func pmfCost(e *Expectation) int64 {
	return int64(len(e.G)) * int64(e.M+1)
}

// tryArmPMF arms e's log-PMF table if the per-expectation size cap, the
// cache-wide entry budget, and the shared byte budget all allow it.
// Arming is attempted once per residency (on the first reuse); an entry
// refused for budget stays on the direct path until it is evicted and
// re-admitted, which keeps the accounting race-free without per-hit CAS
// traffic.
func (c *expCache) tryArmPMF(e *Expectation) {
	if c.retired.Load() {
		// A dying cache arms nothing: the table would never amortize and
		// its reservation could outlive the retire sweep.
		return
	}
	cost := pmfCost(e)
	if cost > maxPMFTableEntries {
		return
	}
	if c.pmfEntries.Add(cost) > maxPMFEntriesPerCache {
		c.pmfEntries.Add(-cost)
		return
	}
	if !c.budget.tryReserve(pmfBytes(e)) {
		c.pmfEntries.Add(-cost)
		return
	}
	e.pmfCharged = true
	//lint:ignore noalloc armed once per residency on the first reuse; table hits amortize the build
	e.EnablePMFTable()
}

// retire credits every resident entry's charges back to the budget and
// permanently detaches the cache from it: later inserts admit uncharged
// and PMF arming stops. Unlike a plain drain it is safe with traffic
// still in flight — the charged flags (guarded by the shard locks) make
// every reservation credited exactly once, whether by this sweep or by
// a subsequent eviction. Called when a detector replaces this cache or
// the serving pool evicts the detector, so a swapped-out or deleted
// cache can never pin budget bytes forever. Idempotent.
func (c *expCache) retire() {
	if c.retired.Swap(true) {
		return
	}
	if c.budget == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			ev := el.Value.(*Expectation)
			if ev.pmfCharged {
				c.budget.release(pmfBytes(ev))
				ev.pmfCharged = false
			}
			if ev.charged {
				c.budget.release(expBytes(ev))
				ev.charged = false
			}
		}
		s.mu.Unlock()
	}
}

// stats reports resident entries and the hit/miss counters.
func (c *expCache) stats() (size int, hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		size += s.lru.Len()
		s.mu.Unlock()
	}
	return size, c.hits.Load(), c.misses.Load()
}
