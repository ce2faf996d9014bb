package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// smallConfig is a compact deployment for cache-accounting tests: big
// enough for meaningful expectations, small enough to train nothing.
func smallConfig() deploy.Config {
	cfg := deploy.PaperConfig()
	cfg.GroupsX, cfg.GroupsY = 5, 5
	cfg.GroupSize = 40
	cfg.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(500, 500))
	return cfg
}

// TestCachedAndTableScoringBitIdentical is the tentpole invariant: every
// serving-path variant — pooled single checks, the cross-request
// expectation cache, the lazily armed log-PMF table, and the sharded
// parallel batch — must produce verdicts bit-identical to a fresh
// sequential Check, for all three metrics. Repeated rounds matter: the
// PMF table arms on the first cache hit, so round 1 exercises the direct
// path and later rounds the table path.
func TestCachedAndTableScoringBitIdentical(t *testing.T) {
	for _, metric := range AllMetrics() {
		metric := metric
		t.Run(metric.Name(), func(t *testing.T) {
			det, items := batchFixtureMetric(t, metric, minParallelBatch+128, 7)
			want := make([]Verdict, len(items))
			for i, it := range items {
				want[i] = det.Check(it.Observation, it.Location)
			}
			for round := 0; round < 3; round++ {
				got := det.CheckBatch(items) // over minParallelBatch: parallel path
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("round %d item %d: batch %+v != fresh Check %+v",
							round, i, got[i], want[i])
					}
				}
				for i, it := range items[:20] {
					if v := det.CheckPooled(it.Observation, it.Location); v != want[i] {
						t.Fatalf("round %d item %d: CheckPooled %+v != fresh Check %+v",
							round, i, v, want[i])
					}
				}
			}
			if size, hits, misses := det.ExpCacheStats(); size == 0 || hits == 0 || misses == 0 {
				t.Errorf("expectation cache unused: size %d, hits %d, misses %d", size, hits, misses)
			}
		})
	}
}

// setExpCacheCapacity rebuilds d's expectation cache empty at capacity
// entries, keeping its byte budget and crediting the old cache's
// reservations back: the tiny-LRU seam of the eviction and budget tests.
func setExpCacheCapacity(d *Detector, capacity int) {
	d.expCache.retire()
	d.expCache = newExpCache(capacity, d.expCache.budget, d.expCache.armPMF)
}

// TestCheckBatchDeterministicUnderSharding re-runs the parallel batch
// path with different worker counts (GOMAXPROCS): dst ranges are
// disjoint per chunk, so the output must not depend on scheduling or on
// the worker count.
func TestCheckBatchDeterministicUnderSharding(t *testing.T) {
	det, items := batchFixtureMetric(t, ProbMetric{}, 2*minParallelBatch, 8)
	ref := make([]Verdict, len(items))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	det.CheckBatchInto(ref, items)
	for _, workers := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(workers)
		for round := 0; round < 3; round++ {
			got := make([]Verdict, len(items))
			det.CheckBatchInto(got, items)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("workers %d round %d item %d: %+v != sequential %+v",
						workers, round, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestConcurrentCachedScoring hammers one detector from many goroutines
// mixing batch, pooled, and fresh checks. Run under -race (CI does) this
// proves the cache, the lazy PMF arming, and the shared expectations are
// data-race free; the verdict comparisons prove they are also
// value-correct under contention.
func TestConcurrentCachedScoring(t *testing.T) {
	for _, metric := range AllMetrics() {
		metric := metric
		t.Run(metric.Name(), func(t *testing.T) {
			det, items := batchFixtureMetric(t, metric, 256, 6)
			want := make([]Verdict, len(items))
			for i, it := range items {
				want[i] = det.Check(it.Observation, it.Location)
			}
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 5; round++ {
						switch (g + round) % 3 {
						case 0:
							got := det.CheckBatch(items)
							for i := range got {
								if got[i] != want[i] {
									errs <- fmt.Sprintf("g%d r%d batch item %d: %+v != %+v", g, round, i, got[i], want[i])
									return
								}
							}
						case 1:
							for i, it := range items[:32] {
								if v := det.CheckPooled(it.Observation, it.Location); v != want[i] {
									errs <- fmt.Sprintf("g%d r%d pooled item %d: %+v != %+v", g, round, i, v, want[i])
									return
								}
							}
						default:
							for i, it := range items[:16] {
								if v := det.Check(it.Observation, it.Location); v != want[i] {
									errs <- fmt.Sprintf("g%d r%d fresh item %d: %+v != %+v", g, round, i, v, want[i])
									return
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestExpCacheEviction bounds the cache: feeding far more distinct
// locations than the capacity must keep residency at or under the
// (shard-rounded) bound, and evicted-then-revisited locations must still
// score identically.
func TestExpCacheEviction(t *testing.T) {
	det, _ := batchFixture(t, 1, 1)
	const capacity = 16
	setExpCacheCapacity(det, capacity)
	r := rng.New(99)
	model := det.Model()
	o := make([]int, model.NumGroups())
	locs := make([]geom.Point, 200)
	for i := range locs {
		_, locs[i] = model.SampleLocation(r)
		det.CheckPooled(o, locs[i])
	}
	size, _, misses := det.ExpCacheStats()
	// Per-shard bounds round the capacity up to a multiple of the shard
	// count; residency must never exceed that.
	maxResident := ((capacity + expCacheShards - 1) / expCacheShards) * expCacheShards
	if size > maxResident {
		t.Errorf("cache holds %d entries, bound is %d", size, maxResident)
	}
	if misses != 200 {
		t.Errorf("misses = %d, want 200 distinct-location misses", misses)
	}
	// A revisited (likely evicted) location still scores correctly.
	for _, le := range locs[:10] {
		if got, want := det.CheckPooled(o, le), det.Check(o, le); got != want {
			t.Fatalf("revisited location %v: %+v != %+v", le, got, want)
		}
	}
}

// TestPMFTableArmsOnReuse pins the laziness contract: a location seen
// once keeps the direct evaluation path (no table memory), the first
// reuse arms the table, and table reads equal mathx.BinomLogPMF exactly.
func TestPMFTableArmsOnReuse(t *testing.T) {
	det, items := batchFixtureMetric(t, ProbMetric{}, 1, 1)
	le := items[0].Location
	det.CheckPooled(items[0].Observation, le)
	e := det.expCache.get(det.Model(), le) // first hit: arms the table
	if e.pmf.Load() == nil {
		t.Fatal("PMF table not armed after first reuse")
	}
	for i := 0; i < len(e.G); i += 13 {
		for k := 0; k <= e.M; k += 37 {
			if got, want := e.LogPMF(i, k), mathx.BinomLogPMF(k, e.M, e.G[i]); got != want {
				t.Fatalf("LogPMF(%d, %d) = %v, direct = %v", i, k, got, want)
			}
		}
	}
	// Out-of-support k bypasses the table and keeps the -Inf convention.
	if got := e.LogPMF(0, e.M+1); !math.IsInf(got, -1) {
		t.Errorf("LogPMF(0, m+1) = %v, want -Inf", got)
	}
	// A fresh expectation never arms a table on its own.
	fresh := NewExpectation(det.Model(), le)
	_ = (ProbMetric{}).Score(items[0].Observation, fresh)
	if fresh.pmf.Load() != nil {
		t.Error("fresh expectation grew a PMF table without EnablePMFTable")
	}
}

// TestPMFTableSkipsOversizedDeployments: arming is a no-op past the
// memory bound, and scoring falls back to the direct path.
func TestPMFTableSkipsOversizedDeployments(t *testing.T) {
	n := 64
	m := maxPMFTableEntries // n*(m+1) far over the bound
	e := &Expectation{G: make([]float64, n), Mu: make([]float64, n), M: m}
	for i := range e.G {
		e.G[i] = 0.5
	}
	e.EnablePMFTable()
	if e.pmf.Load() != nil {
		t.Fatal("oversized deployment armed a PMF table")
	}
	if got, want := e.LogPMF(0, 3), mathx.BinomLogPMF(3, m, 0.5); got != want {
		t.Errorf("fallback LogPMF = %v, want %v", got, want)
	}
}

// TestPMFBudgetBounded drives more recurring locations than the
// cache-wide PMF budget can arm: aggregate armed table entries must
// stay within maxPMFEntriesPerCache (each refused location just keeps
// the direct evaluation path), and evicting armed entries must credit
// their budget back so the counter tracks residency, not history.
func TestPMFBudgetBounded(t *testing.T) {
	det, _ := batchFixtureMetric(t, ProbMetric{}, 1, 1)
	model := det.Model()
	o := make([]int, model.NumGroups())
	r := rng.New(7)
	locs := make([]geom.Point, 1000)
	for i := range locs {
		_, locs[i] = model.SampleLocation(r)
	}
	for round := 0; round < 2; round++ { // round 2: first reuse arms
		for _, le := range locs {
			det.CheckPooled(o, le)
		}
	}
	c := det.expCache
	charged := c.pmfEntries.Load()
	if charged > maxPMFEntriesPerCache {
		t.Errorf("armed PMF entries %d exceed cache budget %d", charged, maxPMFEntriesPerCache)
	}
	armed, resident := 0, 0
	var armedCost int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			resident++
			if e := el.Value.(*Expectation); e.pmf.Load() != nil {
				armed++
				armedCost += pmfCost(e)
			}
		}
		s.mu.Unlock()
	}
	if armed == 0 || armed == resident {
		t.Errorf("armed %d of %d resident entries; budget should arm some but not all", armed, resident)
	}
	if armedCost != charged {
		t.Errorf("budget counter %d != cost of armed resident entries %d", charged, armedCost)
	}

	// Shrinking the cache and cycling locations through it must keep the
	// counter pinned to what is actually resident (eviction credits).
	setExpCacheCapacity(det, 16)
	c = det.expCache
	for round := 0; round < 2; round++ {
		for _, le := range locs[:100] {
			det.CheckPooled(o, le)
			det.CheckPooled(o, le) // immediate reuse: arms before eviction
		}
	}
	perEntry := pmfCost(NewExpectation(model, locs[0]))
	maxResident := int64(((16+expCacheShards-1)/expCacheShards)*expCacheShards) * perEntry
	if got := c.pmfEntries.Load(); got < 0 || got > maxResident {
		t.Errorf("budget counter %d after churn, want within [0, %d]", got, maxResident)
	}
}

// TestNonProbMetricsChargeNoPMF: diff and add-all never read the
// log-PMF table, so reusing a location arms none, and the byte budget
// holds exactly the resident expectations.
func TestNonProbMetricsChargeNoPMF(t *testing.T) {
	for _, metric := range []Metric{DiffMetric{}, AddAllMetric{}} {
		det, items := batchFixtureMetric(t, metric, 16, 4)
		budget := NewExpCacheBudget(0)
		det.SetExpCacheBudget(budget)
		for range 3 {
			for _, it := range items {
				det.CheckPooled(it.Observation, it.Location)
			}
		}
		c := det.expCache
		var resident int64
		armed := 0
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			for el := s.lru.Front(); el != nil; el = el.Next() {
				e := el.Value.(*Expectation)
				resident += expBytes(e)
				if e.pmf.Load() != nil {
					armed++
				}
			}
			s.mu.Unlock()
		}
		if resident == 0 {
			t.Fatalf("%s: no resident expectations; test is vacuous", metric.Name())
		}
		if got := budget.InUse(); armed != 0 || got != resident {
			t.Errorf("%s: %d PMF tables armed, budget in use %d B, resident expectations %d B; want 0 armed and equal bytes",
				metric.Name(), armed, got, resident)
		}
	}
}

func TestProbMetricPanicsOnEmptyObservation(t *testing.T) {
	e := NewExpectation(paperModel(), geom.Pt(500, 500))
	defer func() {
		if recover() == nil {
			t.Error("ProbMetric.Score of empty observation should panic, not return -Inf")
		}
	}()
	_ = (ProbMetric{}).Score(nil, e)
}

// TestProbMetricCountAboveGroupSize: a count above m (a flooded node)
// scores finite and above every in-support observation, on both the
// direct and the table path, so it alarms under any trained threshold.
func TestProbMetricCountAboveGroupSize(t *testing.T) {
	model := paperModel()
	e := NewExpectation(model, geom.Pt(500, 500))
	m := model.GroupSize()
	full := make([]int, model.NumGroups())
	for i := range full {
		full[i] = m
	}
	over := append([]int(nil), full...)
	over[3] = m + 1
	for _, table := range []bool{false, true} {
		if table {
			e.EnablePMFTable()
		}
		worstIn, got := (ProbMetric{}).Score(full, e), (ProbMetric{}).Score(over, e)
		if math.IsInf(got, 0) || math.IsNaN(got) || got <= worstIn {
			t.Errorf("table=%v: score %v for a count above m, want finite and above %v", table, got, worstIn)
		}
	}
}

// TestExpCacheByteBudgetAdmission pins the shared byte budget: with a
// budget too small for every location, some entries are refused
// admission (cache stays under the byte cap) while every verdict stays
// bit-identical to fresh Check; releasing the cache credits the budget
// back to zero.
func TestExpCacheByteBudgetAdmission(t *testing.T) {
	model := deploy.MustNew(smallConfig())
	det := NewDetector(model, DiffMetric{}, 5)
	n := model.NumGroups()
	perEntry := int64(2*n)*8 + expEntryOverheadBytes
	budget := NewExpCacheBudget(3 * perEntry) // room for ~3 locations
	det.SetExpCacheBudget(budget)

	r := rng.New(7)
	locs := make([]geom.Point, 12)
	obs := make([][]int, len(locs))
	for i := range locs {
		g, p := model.SampleLocation(r)
		locs[i] = p
		obs[i] = model.SampleObservation(p, g, r)
	}
	for round := 0; round < 3; round++ {
		for i := range locs {
			got := det.CheckPooled(obs[i], locs[i])
			want := det.Check(obs[i], locs[i])
			if got != want {
				t.Fatalf("round %d loc %d: budgeted %+v != fresh %+v", round, i, got, want)
			}
		}
	}
	if in := budget.InUse(); in > budget.Capacity() {
		t.Errorf("budget in-use %d exceeds capacity %d", in, budget.Capacity())
	}
	size, _, _ := det.ExpCacheStats()
	if size > 3 {
		t.Errorf("cache holds %d locations, budget allows ~3", size)
	}
	if size == 0 {
		t.Error("budget admitted nothing; expected ~3 resident locations")
	}

	// Swapping the cache must credit everything back.
	setExpCacheCapacity(det, DefaultExpCacheCapacity)
	if in := budget.InUse(); in != 0 {
		t.Errorf("after cache swap, budget in-use = %d, want 0", in)
	}
}

// TestExpCacheBudgetAccountOnly pins the default (capacity 0) mode:
// nothing is refused, but in-use bytes are still tracked and returned
// on eviction.
func TestExpCacheBudgetAccountOnly(t *testing.T) {
	model := deploy.MustNew(smallConfig())
	det := NewDetector(model, DiffMetric{}, 5)
	setExpCacheCapacity(det, 4) // tiny LRU so evictions happen
	budget := NewExpCacheBudget(0)
	det.SetExpCacheBudget(budget)

	r := rng.New(8)
	for i := 0; i < 40; i++ {
		g, p := model.SampleLocation(r)
		det.CheckPooled(model.SampleObservation(p, g, r), p)
	}
	size, _, _ := det.ExpCacheStats()
	if size == 0 {
		t.Fatal("account-only budget should not refuse admissions")
	}
	n := model.NumGroups()
	perEntry := int64(2*n)*8 + expEntryOverheadBytes
	in := budget.InUse()
	if in < int64(size)*perEntry {
		t.Errorf("in-use %d under-accounts %d resident entries", in, size)
	}
	// Evictions must have credited the non-resident entries back:
	// in-use stays proportional to residents, not to total traffic.
	if in > int64(size)*(perEntry+1024) {
		t.Errorf("in-use %d looks unreleased for %d residents", in, size)
	}
}

// TestExpCacheByteBudgetReclaimsOwnTail pins the anti-wedge behavior:
// when the shared budget is exhausted, a shard evicts its own LRU tail
// to admit fresh traffic instead of freezing on the earliest-admitted
// locations forever. After a workload shift, recent locations must be
// resident (their re-checks hit the cache) and the budget stays bounded.
func TestExpCacheByteBudgetReclaimsOwnTail(t *testing.T) {
	model := deploy.MustNew(smallConfig())
	det := NewDetector(model, DiffMetric{}, 5)
	n := model.NumGroups()
	perEntry := int64(2*n)*8 + expEntryOverheadBytes
	budget := NewExpCacheBudget(4 * perEntry)
	det.SetExpCacheBudget(budget)

	r := rng.New(11)
	// Phase 1: fill the budget with one wave of locations.
	for i := 0; i < 8; i++ {
		g, p := model.SampleLocation(r)
		det.CheckPooled(model.SampleObservation(p, g, r), p)
	}
	// Phase 2: the workload shifts to a new location; it must become
	// resident (second check is a hit) rather than being refused forever.
	g, p := model.SampleLocation(r)
	o := model.SampleObservation(p, g, r)
	det.CheckPooled(o, p)
	_, hitsBefore, _ := det.ExpCacheStats()
	det.CheckPooled(o, p)
	_, hitsAfter, _ := det.ExpCacheStats()
	if hitsAfter <= hitsBefore {
		t.Fatal("fresh location was not admitted after budget pressure: cache wedged")
	}
	if in := budget.InUse(); in > budget.Capacity() {
		t.Errorf("budget in-use %d exceeds capacity %d", in, budget.Capacity())
	}
}

// TestNaNLocationScoresAndLeaksNothing: a claimed location with a NaN
// coordinate (reachable through the library API; the HTTP codec rejects
// NaN) scores like one far from every group on every path, and the
// cache serves it without inserting it. A NaN map key can never be
// found or deleted, so an insert per check would grow the shard maps
// without bound while the LRU stays at capacity.
func TestNaNLocationScoresAndLeaksNothing(t *testing.T) {
	for _, metric := range AllMetrics() {
		det, items := batchFixtureMetric(t, metric, 4, 1)
		o := items[0].Observation
		for _, le := range []geom.Point{geom.Pt(math.NaN(), 10), geom.Pt(10, math.NaN())} {
			want := det.Check(o, le)
			if got := det.CheckPooled(o, le); got != want {
				t.Fatalf("%s at %v: CheckPooled %+v != Check %+v", metric.Name(), le, got, want)
			}
			batch := det.CheckBatch([]BatchItem{{o, le}, {o, le}, items[1]})
			if batch[0] != want || batch[1] != want {
				t.Fatalf("%s at %v: CheckBatch %+v != Check %+v", metric.Name(), le, batch[:2], want)
			}
			if ref := det.Check(items[1].Observation, items[1].Location); batch[2] != ref {
				t.Fatalf("%s: finite item next to NaN: %+v != %+v", metric.Name(), batch[2], ref)
			}
		}
	}

	det, items := batchFixture(t, 1, 1)
	le := geom.Pt(math.NaN(), 10)
	for i := 0; i < 10000; i++ {
		det.CheckPooled(items[0].Observation, le)
	}
	entries := 0
	for i := range det.expCache.shards {
		s := &det.expCache.shards[i]
		s.mu.Lock()
		entries += len(s.ent)
		s.mu.Unlock()
	}
	if c := det.expCache.capacity(); entries > c {
		t.Errorf("shard maps hold %d entries after 10000 NaN checks, capacity %d", entries, c)
	}
}

// TestCachedScoringAllocatesNothing pins the zero-allocation property
// of the serving paths once their locations are resident: CheckPooled,
// and a batch below minParallelBatch, which stays on the caller's
// goroutine. The batch is 64 items over 8 locations, the shape of a
// batch-hot request: checkRange's dedup map stays on the stack only
// while its size hint is at most 8.
func TestCachedScoringAllocatesNothing(t *testing.T) {
	for _, metric := range AllMetrics() {
		det, items := batchFixtureMetric(t, metric, 64, 8)
		dst := make([]Verdict, len(items))
		for range 3 { // admit, arm the PMF tables, build them
			det.CheckBatchInto(dst, items)
		}
		it := items[0]
		if n := testing.AllocsPerRun(100, func() { det.CheckPooled(it.Observation, it.Location) }); n != 0 {
			t.Errorf("%s: CheckPooled allocates %v per call", metric.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { det.CheckBatchInto(dst, items) }); n != 0 {
			t.Errorf("%s: %d-item CheckBatchInto allocates %v per call", metric.Name(), len(items), n)
		}
	}
}
