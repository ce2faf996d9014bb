package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond cache-hit scoring through multi-second cold training.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointStats is one endpoint's counters: requests by status class and
// a cumulative latency histogram.
type endpointStats struct {
	ok      atomic.Uint64 // 2xx
	badReq  atomic.Uint64 // 4xx
	failed  atomic.Uint64 // 5xx
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumNano atomic.Int64
}

func newEndpointStats() *endpointStats {
	return &endpointStats{buckets: make([]atomic.Uint64, len(latencyBuckets))}
}

func (s *endpointStats) observe(status int, d time.Duration) {
	switch {
	case status >= 500:
		s.failed.Add(1)
	case status >= 400:
		s.badReq.Add(1)
	default:
		s.ok.Add(1)
	}
	sec := d.Seconds()
	for i, ub := range latencyBuckets {
		if sec <= ub {
			s.buckets[i].Add(1)
		}
	}
	s.count.Add(1)
	s.sumNano.Add(d.Nanoseconds())
}

// Metrics aggregates per-endpoint request counters plus the observation
// counter (items scored, so batch traffic is visible beyond request
// counts). Cache hit/miss numbers are read live from the pool when
// rendering. Safe for concurrent use.
type Metrics struct {
	mu sync.Mutex
	//lad:guardedby mu
	endpoints    map[string]*endpointStats
	scored       atomic.Uint64
	corrected    atomic.Uint64
	rethresholds atomic.Uint64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{endpoints: make(map[string]*endpointStats)}
}

func (m *Metrics) endpoint(name string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.endpoints[name]
	if s == nil {
		s = newEndpointStats()
		m.endpoints[name] = s
	}
	return s
}

// Observe records one finished request.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	m.endpoint(endpoint).observe(status, d)
}

// AddScored records n scored observations.
func (m *Metrics) AddScored(n int) { m.scored.Add(uint64(n)) }

// AddCorrected records n served location corrections.
func (m *Metrics) AddCorrected(n int) { m.corrected.Add(uint64(n)) }

// AddRethreshold records n served re-threshold operations.
func (m *Metrics) AddRethreshold(n int) { m.rethresholds.Add(uint64(n)) }

// Render emits the Prometheus text exposition format. pool may be nil.
func (m *Metrics) Render(pool *DetectorPool) string {
	var b strings.Builder
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	stats := make(map[string]*endpointStats, len(names))
	for _, name := range names {
		stats[name] = m.endpoints[name]
	}
	m.mu.Unlock()

	b.WriteString("# HELP ladd_requests_total Requests by endpoint and status class.\n")
	b.WriteString("# TYPE ladd_requests_total counter\n")
	for _, name := range names {
		s := stats[name]
		fmt.Fprintf(&b, "ladd_requests_total{endpoint=%q,code=\"2xx\"} %d\n", name, s.ok.Load())
		fmt.Fprintf(&b, "ladd_requests_total{endpoint=%q,code=\"4xx\"} %d\n", name, s.badReq.Load())
		fmt.Fprintf(&b, "ladd_requests_total{endpoint=%q,code=\"5xx\"} %d\n", name, s.failed.Load())
	}

	b.WriteString("# HELP ladd_request_duration_seconds Request latency histogram.\n")
	b.WriteString("# TYPE ladd_request_duration_seconds histogram\n")
	for _, name := range names {
		s := stats[name]
		for i, ub := range latencyBuckets {
			fmt.Fprintf(&b, "ladd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, formatBound(ub), s.buckets[i].Load())
		}
		fmt.Fprintf(&b, "ladd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n",
			name, s.count.Load())
		fmt.Fprintf(&b, "ladd_request_duration_seconds_sum{endpoint=%q} %g\n",
			name, float64(s.sumNano.Load())/1e9)
		fmt.Fprintf(&b, "ladd_request_duration_seconds_count{endpoint=%q} %d\n",
			name, s.count.Load())
	}

	b.WriteString("# HELP ladd_observations_scored_total Observations scored (batch items counted individually).\n")
	b.WriteString("# TYPE ladd_observations_scored_total counter\n")
	fmt.Fprintf(&b, "ladd_observations_scored_total %d\n", m.scored.Load())

	b.WriteString("# HELP ladd_corrections_total Location corrections served (/v2 correct verb).\n")
	b.WriteString("# TYPE ladd_corrections_total counter\n")
	fmt.Fprintf(&b, "ladd_corrections_total %d\n", m.corrected.Load())

	b.WriteString("# HELP ladd_rethresholds_total Operating-point re-cuts served (/v2 rethreshold verb).\n")
	b.WriteString("# TYPE ladd_rethresholds_total counter\n")
	fmt.Fprintf(&b, "ladd_rethresholds_total %d\n", m.rethresholds.Load())

	if pool != nil {
		states := pool.StateCounts()
		b.WriteString("# HELP ladd_detectors Detector resources resident in the pool, by lifecycle state.\n")
		b.WriteString("# TYPE ladd_detectors gauge\n")
		for _, state := range DetectorStates {
			fmt.Fprintf(&b, "ladd_detectors{state=%q} %d\n", string(state), states[state])
		}

		started, okJobs, failedJobs := pool.JobStats()
		b.WriteString("# HELP ladd_train_jobs_started_total Async training flights spawned (registrations, including warmup and failed-spec re-arms).\n")
		b.WriteString("# TYPE ladd_train_jobs_started_total counter\n")
		fmt.Fprintf(&b, "ladd_train_jobs_started_total %d\n", started)
		b.WriteString("# HELP ladd_train_jobs_completed_total Training flights finished, by outcome.\n")
		b.WriteString("# TYPE ladd_train_jobs_completed_total counter\n")
		fmt.Fprintf(&b, "ladd_train_jobs_completed_total{outcome=\"ok\"} %d\n", okJobs)
		fmt.Fprintf(&b, "ladd_train_jobs_completed_total{outcome=\"failed\"} %d\n", failedJobs)

		entries, hits, misses, failures := pool.Stats()
		b.WriteString("# HELP ladd_detector_cache_entries Detector resources resident in the pool, any lifecycle state (see ladd_detectors for the per-state breakdown).\n")
		b.WriteString("# TYPE ladd_detector_cache_entries gauge\n")
		fmt.Fprintf(&b, "ladd_detector_cache_entries %d\n", entries)
		b.WriteString("# HELP ladd_detector_cache_hits_total Pool lookups served from cache.\n")
		b.WriteString("# TYPE ladd_detector_cache_hits_total counter\n")
		fmt.Fprintf(&b, "ladd_detector_cache_hits_total %d\n", hits)
		b.WriteString("# HELP ladd_detector_cache_misses_total Pool lookups that trained a new detector.\n")
		b.WriteString("# TYPE ladd_detector_cache_misses_total counter\n")
		fmt.Fprintf(&b, "ladd_detector_cache_misses_total %d\n", misses)
		b.WriteString("# HELP ladd_detector_cache_failures_total Pool lookups that returned a training error (never cached, not hits).\n")
		b.WriteString("# TYPE ladd_detector_cache_failures_total counter\n")
		fmt.Fprintf(&b, "ladd_detector_cache_failures_total %d\n", failures)
		b.WriteString("# HELP ladd_detector_cache_hit_rate Share of successful pool lookups served from cache.\n")
		b.WriteString("# TYPE ladd_detector_cache_hit_rate gauge\n")
		rate := 0.0
		if total := hits + misses; total > 0 {
			rate = float64(hits) / float64(total)
		}
		fmt.Fprintf(&b, "ladd_detector_cache_hit_rate %g\n", rate)

		trainCount, trainTotal, trainLast, trainBkts := pool.TrainStats()
		bounds := pool.TrainBuckets()
		b.WriteString("# HELP ladd_train_seconds Wall time of successful detector training runs (cold-start cost).\n")
		b.WriteString("# TYPE ladd_train_seconds histogram\n")
		for i, ub := range bounds {
			fmt.Fprintf(&b, "ladd_train_seconds_bucket{le=%q} %d\n", formatBound(ub), trainBkts[i])
		}
		fmt.Fprintf(&b, "ladd_train_seconds_bucket{le=\"+Inf\"} %d\n", trainCount)
		fmt.Fprintf(&b, "ladd_train_seconds_sum %g\n", trainTotal)
		fmt.Fprintf(&b, "ladd_train_seconds_count %d\n", trainCount)
		b.WriteString("# HELP ladd_train_last_seconds Wall time of the most recent successful training run.\n")
		b.WriteString("# TYPE ladd_train_last_seconds gauge\n")
		fmt.Fprintf(&b, "ladd_train_last_seconds %g\n", trainLast)

		expSize, expHits, expMisses := pool.ExpCacheStats()
		b.WriteString("# HELP ladd_expectation_cache_entries Claimed locations resident in the expectation caches (all detectors).\n")
		b.WriteString("# TYPE ladd_expectation_cache_entries gauge\n")
		fmt.Fprintf(&b, "ladd_expectation_cache_entries %d\n", expSize)
		b.WriteString("# HELP ladd_expectation_cache_hits_total Expectation lookups served from cache.\n")
		b.WriteString("# TYPE ladd_expectation_cache_hits_total counter\n")
		fmt.Fprintf(&b, "ladd_expectation_cache_hits_total %d\n", expHits)
		b.WriteString("# HELP ladd_expectation_cache_misses_total Expectation lookups that evaluated the g-table.\n")
		b.WriteString("# TYPE ladd_expectation_cache_misses_total counter\n")
		fmt.Fprintf(&b, "ladd_expectation_cache_misses_total %d\n", expMisses)
		b.WriteString("# HELP ladd_expectation_cache_hit_rate Share of expectation lookups served from cache.\n")
		b.WriteString("# TYPE ladd_expectation_cache_hit_rate gauge\n")
		expRate := 0.0
		if total := expHits + expMisses; total > 0 {
			expRate = float64(expHits) / float64(total)
		}
		fmt.Fprintf(&b, "ladd_expectation_cache_hit_rate %g\n", expRate)

		snaps := pool.SnapshotCounters()
		b.WriteString("# HELP ladd_snapshot_saves_total Detector snapshot saves, by outcome (error = abandoned after retries; the detector keeps serving from memory).\n")
		b.WriteString("# TYPE ladd_snapshot_saves_total counter\n")
		fmt.Fprintf(&b, "ladd_snapshot_saves_total{outcome=\"ok\"} %d\n", snaps.SavesOK)
		fmt.Fprintf(&b, "ladd_snapshot_saves_total{outcome=\"error\"} %d\n", snaps.SavesErr)
		b.WriteString("# HELP ladd_snapshot_loads_total Boot-time snapshot loads, by outcome (corrupt/stale/mismatch are quarantined and retrained).\n")
		b.WriteString("# TYPE ladd_snapshot_loads_total counter\n")
		fmt.Fprintf(&b, "ladd_snapshot_loads_total{outcome=\"ok\"} %d\n", snaps.LoadsOK)
		fmt.Fprintf(&b, "ladd_snapshot_loads_total{outcome=\"corrupt\"} %d\n", snaps.LoadsCorrupt)
		fmt.Fprintf(&b, "ladd_snapshot_loads_total{outcome=\"stale\"} %d\n", snaps.LoadsStale)
		fmt.Fprintf(&b, "ladd_snapshot_loads_total{outcome=\"mismatch\"} %d\n", snaps.LoadsMismatch)
		b.WriteString("# HELP ladd_snapshots_adopted_total Detectors installed ready from snapshots at boot (restarts served with zero retraining).\n")
		b.WriteString("# TYPE ladd_snapshots_adopted_total counter\n")
		fmt.Fprintf(&b, "ladd_snapshots_adopted_total %d\n", snaps.Adopted)
		b.WriteString("# HELP ladd_store_errors_total Snapshot store operations that failed (put/get/delete/quarantine, each attempt counted).\n")
		b.WriteString("# TYPE ladd_store_errors_total counter\n")
		fmt.Fprintf(&b, "ladd_store_errors_total %d\n", snaps.StoreErrors)

		ss := pool.SchedStats()
		b.WriteString("# HELP ladd_sched_queue_depth Training jobs parked in the scheduler's round-robin ring (not currently executing a batch).\n")
		b.WriteString("# TYPE ladd_sched_queue_depth gauge\n")
		fmt.Fprintf(&b, "ladd_sched_queue_depth %d\n", ss.QueueDepth)
		b.WriteString("# HELP ladd_sched_jobs_executing Training jobs with a batch running right now.\n")
		b.WriteString("# TYPE ladd_sched_jobs_executing gauge\n")
		fmt.Fprintf(&b, "ladd_sched_jobs_executing %d\n", ss.Executing)
		b.WriteString("# HELP ladd_sched_jobs_active Live training jobs (queued + executing).\n")
		b.WriteString("# TYPE ladd_sched_jobs_active gauge\n")
		fmt.Fprintf(&b, "ladd_sched_jobs_active %d\n", ss.ActiveJobs)
		b.WriteString("# HELP ladd_sched_batches_total Trial batches the scheduler has executed.\n")
		b.WriteString("# TYPE ladd_sched_batches_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_batches_total %d\n", ss.Batches)
		b.WriteString("# HELP ladd_sched_trials_total Monte-Carlo trials completed across all training jobs.\n")
		b.WriteString("# TYPE ladd_sched_trials_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_trials_total %d\n", ss.Units)
		b.WriteString("# HELP ladd_sched_jobs_completed_total Scheduler jobs finished, by outcome.\n")
		b.WriteString("# TYPE ladd_sched_jobs_completed_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_jobs_completed_total{outcome=\"ok\"} %d\n", ss.JobsDone)
		fmt.Fprintf(&b, "ladd_sched_jobs_completed_total{outcome=\"failed\"} %d\n", ss.JobsFailed)
		fmt.Fprintf(&b, "ladd_sched_jobs_completed_total{outcome=\"canceled\"} %d\n", ss.JobsCanceled)
		writeSchedHist(&b, "ladd_sched_job_wait_seconds", "Time training jobs spent queued before their first batch ran.", ss.Wait)
		writeSchedHist(&b, "ladd_sched_job_run_seconds", "Cumulative batch execution time of finished training jobs.", ss.Run)

		saveOK, saveErr, resumes, resumedTrials, rejected := pool.CheckpointStats()
		b.WriteString("# HELP ladd_sched_checkpoint_saves_total Mid-training checkpoint saves, by outcome (error = degraded to restart-from-zero on crash; training itself is unaffected).\n")
		b.WriteString("# TYPE ladd_sched_checkpoint_saves_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_checkpoint_saves_total{outcome=\"ok\"} %d\n", saveOK)
		fmt.Fprintf(&b, "ladd_sched_checkpoint_saves_total{outcome=\"error\"} %d\n", saveErr)
		b.WriteString("# HELP ladd_sched_checkpoint_resumes_total Training jobs resumed from a stored checkpoint instead of trial zero.\n")
		b.WriteString("# TYPE ladd_sched_checkpoint_resumes_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_checkpoint_resumes_total %d\n", resumes)
		b.WriteString("# HELP ladd_sched_resumed_trials_total Monte-Carlo trials adopted from checkpoints (work a crash did not lose).\n")
		b.WriteString("# TYPE ladd_sched_resumed_trials_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_resumed_trials_total %d\n", resumedTrials)
		b.WriteString("# HELP ladd_sched_checkpoint_rejected_total Stored checkpoints discarded at resume (corrupt, or for a different spec/configuration).\n")
		b.WriteString("# TYPE ladd_sched_checkpoint_rejected_total counter\n")
		fmt.Fprintf(&b, "ladd_sched_checkpoint_rejected_total %d\n", rejected)

		budgetCap, budgetInUse := pool.ExpCacheBudgetStats()
		b.WriteString("# HELP ladd_expectation_cache_budget_bytes Pool-wide expectation-cache admission budget (0 = unlimited).\n")
		b.WriteString("# TYPE ladd_expectation_cache_budget_bytes gauge\n")
		fmt.Fprintf(&b, "ladd_expectation_cache_budget_bytes %d\n", budgetCap)
		b.WriteString("# HELP ladd_expectation_cache_bytes_in_use Bytes reserved by resident expectation entries and armed PMF tables across all detectors.\n")
		b.WriteString("# TYPE ladd_expectation_cache_bytes_in_use gauge\n")
		fmt.Fprintf(&b, "ladd_expectation_cache_bytes_in_use %d\n", budgetInUse)
	}
	return b.String()
}

// writeSchedHist renders a scheduler histogram snapshot in Prometheus
// exposition format, converting per-bucket counts to cumulative ones.
func writeSchedHist(b *strings.Builder, name, help string, h sched.HistSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(ub), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

// formatBound renders a bucket bound the way Prometheus clients expect
// (shortest decimal, no exponent for these magnitudes).
func formatBound(ub float64) string {
	if ub == math.Trunc(ub) {
		return fmt.Sprintf("%g", ub)
	}
	return strings.TrimRight(fmt.Sprintf("%.4f", ub), "0")
}
