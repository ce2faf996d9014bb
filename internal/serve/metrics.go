package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// latencyBuckets are the request-latency histogram upper bounds in
// seconds, spanning sub-millisecond cache-hit scoring through
// multi-second cold training.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// trainBuckets are the ladd_train_seconds histogram upper bounds,
// spanning trivial test-sized trainings through multi-minute cold starts
// of request-supplied maximum-size specs.
var trainBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// poolMetrics is the pool's accounting, registered in the registry that
// /metrics writes. The scheduler registers its own ladd_sched_* families
// into the same registry, and the Server its request families.
type poolMetrics struct {
	reg *metrics.Registry

	// Served work, counted by the Server's check and correct handlers
	// (batch items individually). The pool keeps them because its
	// scheduler leaves a core to this work while it advances.
	scored, corrected *metrics.Counter

	hits     *metrics.Counter
	misses   *metrics.Counter
	failures *metrics.Counter // failed training runs (per run, not per waiter)
	// jobsStarted counts every training flight spawned, including ones
	// later evicted mid-run; completions are trainSeconds' count (ok) and
	// failures (failed).
	jobsStarted *metrics.Counter

	// Training-duration accounting: cold starts are the pool's dominant
	// latency (seconds of Monte-Carlo per new spec vs microseconds per
	// check), so their cost is first-class observable. Successful runs
	// only; failures are visible through the failures counter.
	trainSeconds *metrics.Histogram
	trainLast    atomic.Int64 // nanoseconds

	// Snapshot persistence (persist.go): saves by outcome, boot-time
	// loads by outcome, adoptions, and store-operation errors.
	snapSaveOK, snapSaveErr                                      *metrics.Counter
	snapLoadOK, snapLoadCorrupt, snapLoadStale, snapLoadMismatch *metrics.Counter
	snapAdopted, storeErrors                                     *metrics.Counter

	// Checkpoints: saves by outcome, resumes (jobs that picked up from a
	// persisted checkpoint, plus the trials they skipped), and
	// checkpoints rejected at resume time (corrupt, stale, or taken under
	// a different configuration — all degrade to a fresh run).
	ckptSaveOK, ckptSaveErr, ckptResumes, ckptResumedTrials, ckptRejected *metrics.Counter
}

// registerMetrics creates the pool's registry and registers every pool
// family in it, counters and scrape-time values alike.
func (p *DetectorPool) registerMetrics() {
	r := metrics.NewRegistry()
	const (
		completed = "Training flights finished, by outcome."
		saves     = "Detector snapshot saves, by outcome (error = abandoned after retries; the detector keeps serving from memory)."
		loads     = "Snapshot loads at boot or registration, by outcome (corrupt/stale/mismatch are quarantined and retrained)."
		ckptSaves = "Mid-training checkpoint saves, by outcome (error = degraded to restart-from-zero on crash; training itself is unaffected)."
		states    = "Detector resources resident in the pool, by lifecycle state."
	)
	p.poolMetrics = poolMetrics{
		reg:          r,
		scored:       r.Counter("ladd_observations_scored_total", "Observations scored (batch items counted individually)."),
		corrected:    r.Counter("ladd_corrections_total", "Location corrections served (/v2 correct verb)."),
		hits:         r.Counter("ladd_detector_cache_hits_total", "Pool lookups served from cache."),
		misses:       r.Counter("ladd_detector_cache_misses_total", "Pool lookups that trained a new detector."),
		failures:     r.Counter("ladd_detector_cache_failures_total", "Pool lookups that returned a training error (never cached, not hits)."),
		jobsStarted:  r.Counter("ladd_train_jobs_started_total", "Async training flights spawned (registrations, including warmup and failed-spec re-arms)."),
		trainSeconds: r.Histogram("ladd_train_seconds", "Wall time of successful detector training runs (cold-start cost).", trainBuckets),

		snapSaveOK:       r.Counter("ladd_snapshot_saves_total", saves, "outcome", "ok"),
		snapSaveErr:      r.Counter("ladd_snapshot_saves_total", saves, "outcome", "error"),
		snapLoadOK:       r.Counter("ladd_snapshot_loads_total", loads, "outcome", "ok"),
		snapLoadCorrupt:  r.Counter("ladd_snapshot_loads_total", loads, "outcome", "corrupt"),
		snapLoadStale:    r.Counter("ladd_snapshot_loads_total", loads, "outcome", "stale"),
		snapLoadMismatch: r.Counter("ladd_snapshot_loads_total", loads, "outcome", "mismatch"),
		snapAdopted:      r.Counter("ladd_snapshots_adopted_total", "Detectors installed ready from stored snapshots at boot or registration (served with zero retraining)."),
		storeErrors:      r.Counter("ladd_store_errors_total", "Snapshot store operations that failed (put/get/delete/quarantine, each attempt counted)."),

		ckptSaveOK:        r.Counter("ladd_sched_checkpoint_saves_total", ckptSaves, "outcome", "ok"),
		ckptSaveErr:       r.Counter("ladd_sched_checkpoint_saves_total", ckptSaves, "outcome", "error"),
		ckptResumes:       r.Counter("ladd_sched_checkpoint_resumes_total", "Training jobs resumed from a stored checkpoint instead of trial zero."),
		ckptResumedTrials: r.Counter("ladd_sched_resumed_trials_total", "Monte-Carlo trials adopted from checkpoints (work a crash did not lose)."),
		ckptRejected:      r.Counter("ladd_sched_checkpoint_rejected_total", "Stored checkpoints quarantined at resume (corrupt, stale, or for a different spec/configuration)."),
	}
	r.CounterFunc("ladd_train_jobs_completed_total", completed,
		func() float64 { return float64(p.trainSeconds.Totals().Count) }, "outcome", "ok")
	r.CounterFunc("ladd_train_jobs_completed_total", completed,
		func() float64 { return float64(p.failures.Load()) }, "outcome", "failed")
	r.Gauge("ladd_train_last_seconds", "Wall time of the most recent successful training run.",
		func() float64 { return float64(p.trainLast.Load()) / 1e9 })
	for _, st := range DetectorStates {
		r.Gauge("ladd_detectors", states, func() float64 { return float64(p.countState(st)) }, "state", string(st))
	}
	r.Gauge("ladd_detector_cache_entries", "Detector resources resident in the pool, any lifecycle state (see ladd_detectors for the per-state breakdown).",
		func() float64 { entries, _, _, _ := p.Stats(); return float64(entries) })
	r.Gauge("ladd_detector_cache_hit_rate", "Share of successful pool lookups served from cache.",
		func() float64 { return hitRate(p.hits.Load(), p.misses.Load()) })
	r.Gauge("ladd_expectation_cache_entries", "Claimed locations resident in the expectation caches (all detectors).",
		func() float64 { size, _, _ := p.ExpCacheStats(); return float64(size) })
	r.CounterFunc("ladd_expectation_cache_hits_total", "Expectation lookups served from cache.",
		func() float64 { _, hits, _ := p.ExpCacheStats(); return float64(hits) })
	r.CounterFunc("ladd_expectation_cache_misses_total", "Expectation lookups that evaluated the g-table.",
		func() float64 { _, _, misses := p.ExpCacheStats(); return float64(misses) })
	r.Gauge("ladd_expectation_cache_hit_rate", "Share of expectation lookups served from cache.",
		func() float64 { _, hits, misses := p.ExpCacheStats(); return hitRate(hits, misses) })
	r.Gauge("ladd_expectation_cache_budget_bytes", "Pool-wide expectation-cache admission budget (0 = unlimited).",
		func() float64 { return float64(p.expBudget.Capacity()) })
	r.Gauge("ladd_expectation_cache_bytes_in_use", "Bytes reserved by resident expectation entries and armed PMF tables across all detectors.",
		func() float64 { return float64(p.expBudget.InUse()) })
}

// hitRate is hits/(hits+misses), 0 before the first lookup.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// endpointMetrics is one mounted endpoint's series: requests by status
// class and a latency histogram, resolved once when the route is
// mounted.
type endpointMetrics struct {
	ok, badReq, failed *metrics.Counter // 2xx, 4xx, 5xx
	latency            *metrics.Histogram
}

func newEndpointMetrics(r *metrics.Registry, endpoint string) endpointMetrics {
	const requests = "Requests by endpoint and status class."
	return endpointMetrics{
		ok:      r.Counter("ladd_requests_total", requests, "endpoint", endpoint, "code", "2xx"),
		badReq:  r.Counter("ladd_requests_total", requests, "endpoint", endpoint, "code", "4xx"),
		failed:  r.Counter("ladd_requests_total", requests, "endpoint", endpoint, "code", "5xx"),
		latency: r.Histogram("ladd_request_duration_seconds", "Request latency histogram.", latencyBuckets, "endpoint", endpoint),
	}
}

// observe records one finished request.
//
//lad:noalloc
func (m endpointMetrics) observe(status int, d time.Duration) {
	switch {
	case status >= 500:
		m.failed.Inc()
	case status >= 400:
		m.badReq.Inc()
	default:
		m.ok.Inc()
	}
	m.latency.Observe(d.Seconds())
}
