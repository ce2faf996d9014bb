package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// Verdict is the outcome of one anomaly check.
type Verdict struct {
	Score     float64
	Threshold float64
	Alarm     bool
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	state := "consistent"
	if v.Alarm {
		state = "ANOMALY"
	}
	return fmt.Sprintf("%s (score %.3f vs threshold %.3f)", state, v.Score, v.Threshold)
}

// Detector is a trained LAD instance: a metric plus its detection
// threshold, bound to the deployment knowledge. Safe for concurrent use.
type Detector struct {
	model  *deploy.Model
	metric Metric
	// threshold holds math.Float64bits of the detection threshold. It is
	// atomic so SetThreshold can re-cut the operating point of a live
	// detector (the serving layer's /rethreshold) without a lock on the
	// scoring hot path — checks in flight see either the old or the new
	// value, never a torn one.
	threshold atomic.Uint64
	// expCache shares expectations — and their lazily built log-PMF
	// tables — across requests, keyed by claimed location. CheckPooled
	// and the batch paths score through it; Check does not.
	//lad:guardedby setup
	expCache *expCache
}

// NewDetector wires a detector with an explicit threshold (normally
// produced by Train). The cross-request expectation cache holds
// DefaultExpCacheCapacity locations, scaled down for very wide
// deployments so the raw G/Mu slices stay tens of MiB even at the
// largest request-supplied group counts.
func NewDetector(model *deploy.Model, metric Metric, threshold float64) *Detector {
	d := &Detector{model: model, metric: metric}
	d.threshold.Store(math.Float64bits(threshold))
	capacity := DefaultExpCacheCapacity
	if maxLocs := (1 << 21) / (2 * model.NumGroups()); maxLocs < capacity { // ~16 MiB of G/Mu floats
		capacity = max(1, maxLocs)
	}
	_, readsPMF := metric.(ProbMetric)
	d.expCache = newExpCache(capacity, nil, readsPMF)
	return d
}

// SetExpCacheBudget installs a byte budget on the detector's
// expectation cache — pass the same *ExpCacheBudget to many detectors
// to share one pool-wide bound (ladd does). nil removes budgeting. The
// cache is rebuilt empty at the same capacity and the previous cache's
// reservations are credited back. Not safe to call concurrently with
// checks — configure before serving traffic.
//
//lad:setup
func (d *Detector) SetExpCacheBudget(b *ExpCacheBudget) {
	d.expCache.retire()
	d.expCache = newExpCache(d.expCache.capacity(), b, d.expCache.armPMF)
}

// ExpCacheBudget returns the installed byte budget (nil when none).
func (d *Detector) ExpCacheBudget() *ExpCacheBudget { return d.expCache.budget }

// RetireExpCache credits the detector's expectation-cache reservations
// back to the shared byte budget and stops the cache from charging it
// again. Unlike SetExpCacheBudget this IS safe to call while checks are
// in flight — scoring continues (post-retirement admissions are simply
// uncharged) — which is exactly what the serving pool needs when it
// evicts a detector whose cache would otherwise pin budget bytes
// forever.
func (d *Detector) RetireExpCache() {
	d.expCache.retire()
}

// ExpCacheStats reports the expectation cache: resident locations and
// hit/miss counters since the cache was (re)installed.
func (d *Detector) ExpCacheStats() (size int, hits, misses uint64) {
	return d.expCache.stats()
}

// Metric returns the detector's metric.
func (d *Detector) Metric() Metric { return d.metric }

// Threshold returns the detection threshold.
func (d *Detector) Threshold() float64 {
	return math.Float64frombits(d.threshold.Load())
}

// SetThreshold replaces the detection threshold. It is safe to call
// while checks are in flight: a concurrent check scores against either
// the old or the new value. The serving layer's /rethreshold endpoint
// uses it to re-cut the percentile from retained benign scores without
// retraining.
func (d *Detector) SetThreshold(t float64) {
	d.threshold.Store(math.Float64bits(t))
}

// Model returns the deployment knowledge the detector uses.
func (d *Detector) Model() *deploy.Model { return d.model }

// Check verifies an estimated location against an observation.
func (d *Detector) Check(o []int, le geom.Point) Verdict {
	e := NewExpectation(d.model, le)
	return d.CheckWithExpectation(o, e)
}

// CheckPooled is Check scoring through the expectation cache — same
// verdict, and no allocation once le is resident. The serving layer
// uses it for single-observation requests; Check builds a fresh
// expectation per call and is the reference every cached path must
// match bit for bit.
//
//lad:noalloc
func (d *Detector) CheckPooled(o []int, le geom.Point) Verdict {
	return d.CheckWithExpectation(o, d.expCache.get(d.model, le))
}

// CheckWithExpectation is Check with a precomputed expectation (several
// metrics can share one).
//
//lad:noalloc
func (d *Detector) CheckWithExpectation(o []int, e *Expectation) Verdict {
	s := d.metric.Score(o, e)
	th := d.Threshold()
	return Verdict{Score: s, Threshold: th, Alarm: s > th}
}

// BatchItem is one observation/claimed-location pair in a batched check.
type BatchItem struct {
	Observation []int
	Location    geom.Point
}

// CheckBatch scores many observations in one call. Results are identical
// to calling Check on each item in order; the batch path is faster
// because items that share a claimed location share one Expectation
// (through the cross-request cache), and large batches fan out over a
// worker pool. This is the hot path of the ladd serving daemon, where
// many sensors report against a handful of claimed positions.
func (d *Detector) CheckBatch(items []BatchItem) []Verdict {
	verdicts := make([]Verdict, len(items))
	d.CheckBatchInto(verdicts, items)
	return verdicts
}

// minParallelBatch is the batch size below which CheckBatchInto stays
// sequential. Cached, table-driven scoring costs a few hundred ns per
// item, so goroutine fan-out (spawn + WaitGroup + per-chunk dedup map)
// only amortizes on batches of roughly a thousand items and up —
// measured on the paper deployment, 256-item probability batches score
// ~20% faster sequential than split two ways.
const minParallelBatch = 1024

// minBatchChunk keeps parallel chunks large enough that the per-chunk
// location map and scheduling overhead stay amortized.
const minBatchChunk = 256

// CheckBatchInto is CheckBatch writing into dst (length len(items)),
// avoiding the result allocation in serving loops. Batches of
// minParallelBatch items or more are sharded into contiguous chunks
// scored in parallel over GOMAXPROCS workers; each chunk writes a
// disjoint range of dst, so the output order is deterministic and every
// verdict is bit-identical to sequential Check.
//
//lad:noalloc
func (d *Detector) CheckBatchInto(dst []Verdict, items []BatchItem) {
	if len(dst) != len(items) {
		panic("core: CheckBatchInto length mismatch")
	}
	if len(items) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if len(items) < minParallelBatch || workers == 1 {
		d.checkRange(dst, items)
		return
	}
	chunk := (len(items) + workers - 1) / workers
	if chunk < minBatchChunk {
		chunk = minBatchChunk
	}
	// The caller scores the first chunk inline: with W workers that is
	// one goroutine spawn fewer, and the caller does useful work instead
	// of parking on the WaitGroup.
	var wg sync.WaitGroup
	for lo := chunk; lo < len(items); lo += chunk {
		hi := min(lo+chunk, len(items))
		wg.Add(1)
		//lint:ignore ladvet/noalloc large-batch fan-out: one spawn per chunk, amortized over >=minBatchChunk items
		go func(lo, hi int) {
			defer wg.Done()
			d.checkRange(dst[lo:hi], items[lo:hi])
		}(lo, hi)
	}
	d.checkRange(dst[:chunk], items[:chunk])
	wg.Wait()
}

// checkRange scores one contiguous chunk. Locations are deduplicated
// chunk-locally so the shared cache is consulted once per distinct
// location rather than once per item. The map's size hint stops at 8,
// the most a map kept on the stack holds: a chunk over eight or fewer
// distinct locations then allocates nothing, and a wider one grows the
// map as it goes.
//
//lad:noalloc
func (d *Detector) checkRange(dst []Verdict, items []BatchItem) {
	//lint:ignore ladvet/noalloc per-chunk dedup map: on the stack up to 8 locations, one small map per chunk beyond
	local := make(map[geom.Point]*Expectation, min(8, 1+len(items)/8))
	for i, it := range items {
		e := local[it.Location]
		if e == nil {
			e = d.expCache.get(d.model, it.Location)
			local[it.Location] = e
		}
		dst[i] = d.CheckWithExpectation(it.Observation, e)
	}
}
