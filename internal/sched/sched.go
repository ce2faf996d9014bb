// Package sched is the fair-share training scheduler: jobs submit as a
// total number of work units (benign trials), a fixed worker pool
// executes them one batch at a time, and between batches a job goes to
// the tail of a round-robin ring. With K queued equal-cost jobs and one
// worker, every job finishes within ~K× its solo time — no job convoys
// behind another's 100k-trial run, which is the property the
// one-goroutine-per-job-behind-a-semaphore model it replaces could not
// give. After each non-final batch the scheduler offers the job's
// durable progress to a checkpoint sink, so an evicted or SIGKILLed job
// resumes from its last batch boundary instead of restarting.
//
// The scheduler is deliberately storage- and domain-agnostic: tasks are
// an interface, checkpoints are opaque bytes, and persistence is a pair
// of callbacks. The serving pool owns the mapping onto detectors,
// specs, and the snapshot store. The scheduler's counters, gauges and
// wait/run histograms are ladd_sched_* families in the metrics registry
// the pool passes in (Config.Metrics).
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Task is one schedulable job body. RunBatch executes up to n work
// units and reports how many ran and whether the job is complete; the
// scheduler calls it from exactly one worker at a time (no concurrent
// RunBatch on the same Task), so implementations need no internal
// locking against the scheduler. A returned error terminates the job.
type Task interface {
	RunBatch(n int) (ran int, done bool, err error)
}

// Checkpointer is optionally implemented by Tasks whose progress can be
// persisted. Checkpoint returns the job's durable state as of the last
// completed batch, or ok=false when there is nothing worth saving yet.
// The returned bytes are only read until the next RunBatch/Checkpoint
// call, so implementations may reuse one buffer.
type Checkpointer interface {
	Checkpoint() (data []byte, ok bool)
}

// ErrCanceled terminates a job whose Cancel arrived while it was queued
// or between batches.
var ErrCanceled = errors.New("sched: job canceled")

// DefaultBatchUnits is the batch size when Config.BatchUnits is unset:
// small enough that a paper-scale spec yields the worker several times
// per run, large enough that batch turnover is noise.
const DefaultBatchUnits = 500

// Config sizes a Scheduler.
type Config struct {
	// Workers is the number of concurrent batch executions; < 1 means 1.
	Workers int
	// BatchUnits is the work-unit budget per batch turn; < 1 means
	// DefaultBatchUnits.
	BatchUnits int
	// Save, when non-nil, receives each job's checkpoint bytes after
	// every completed non-final batch. It is called synchronously from
	// the worker between batches and must not block long; failures are
	// the sink's to swallow (the next batch brings the next save — a
	// checkpoint is an optimization, never a correctness dependency).
	Save func(id string, data []byte)
	// Drop, when non-nil, is called once when a job reaches a terminal
	// state, so stale checkpoints do not outlive their jobs.
	Drop func(id string)
	// Metrics receives the scheduler's metric families; nil keeps them
	// in a private registry. A scheduler rebuilt on the same registry
	// continues its predecessor's counters.
	Metrics *metrics.Registry
}

// JobState is the lifecycle of a submitted job.
type JobState int

const (
	// StateQueued: waiting for its first batch turn.
	StateQueued JobState = iota
	// StateRunning: at least one batch started (or a worker slot was
	// preclaimed at submit) and the job is not yet terminal; between
	// batch turns the job is parked on the ring but still Running.
	StateRunning
	// StateDone: all units executed.
	StateDone
	// StateFailed: a batch returned an error.
	StateFailed
	// StateCanceled: canceled before completion.
	StateCanceled
)

// JobResult is handed to a job's OnDone hook at its terminal state.
type JobResult struct {
	// Err is nil for StateDone, ErrCanceled for StateCanceled, and the
	// batch error for StateFailed.
	Err error
	// WaitSeconds is submit → first batch start (0 if never started).
	WaitSeconds float64
	// RunSeconds is the cumulative batch execution time — the job's
	// worker occupancy, excluding time parked between turns.
	RunSeconds float64
	// UnitsDone is the number of units that completed.
	UnitsDone int
}

// Hooks are a job's lifecycle callbacks, both optional and both invoked
// outside scheduler locks. OnStart fires once, immediately before the
// first batch; OnDone fires once at the terminal state.
type Hooks struct {
	OnStart func()
	OnDone  func(JobResult)
}

// JobStatus is a point-in-time view of a live job.
type JobStatus struct {
	State JobState
	// QueuePosition is the number of jobs ahead in the service ring:
	// 0 means executing now or next in line for a worker.
	QueuePosition int
	UnitsDone     int
	UnitsTotal    int
	// ETA estimates time until completion from the observed mean batch
	// throughput and the current worker contention; 0 when no batch has
	// completed yet (no throughput sample to extrapolate from).
	ETA time.Duration
}

// Stats is a point-in-time snapshot of the scheduler's gauges and
// counters, the values its ladd_sched_* families export.
type Stats struct {
	// QueueDepth is the number of jobs parked on the ring waiting for a
	// worker turn; Executing the number currently running a batch;
	// ActiveJobs the total live (non-terminal) jobs.
	QueueDepth int
	Executing  int
	ActiveJobs int
	// Batches and Units count completed batch executions and the work
	// units they ran.
	Batches                            uint64
	Units                              uint64
	JobsDone, JobsFailed, JobsCanceled uint64
	// Wait totals the jobs' submit→first-batch latencies; Run their
	// cumulative execution times (observed at the terminal state).
	Wait metrics.Totals
	Run  metrics.Totals
}

// durationBounds are the wait/run histogram bucket upper bounds in
// seconds, spanning sub-millisecond test jobs to multi-minute trainings.
var durationBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// job is the scheduler-internal record of one submission. The id,
// total, task, and hooks fields are immutable after Submit; everything
// else is guarded by the owning Scheduler's mu (job carries no mutex of
// its own — all transitions happen under the ring lock anyway).
type job struct {
	id    string
	total int
	task  Task
	hooks Hooks

	state     JobState
	canceled  bool
	executing bool // a worker is inside RunBatch right now
	started   bool // first batch dispatched (wait time latched)
	unitsDone int
	enqueued  time.Time
	waitSecs  float64
	runNanos  int64
}

// Scheduler interleaves submitted jobs' batches over a fixed worker
// pool. Workers launch lazily on first Submit and park when the ring is
// empty; Close stops them (jobs still queued at Close never complete —
// it is a setup/teardown operation, not a drain).
type Scheduler struct {
	//lad:guardedby setup
	workers int
	//lad:guardedby setup
	batch int
	//lad:guardedby setup
	save func(string, []byte)
	//lad:guardedby setup
	drop func(string)

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	//lad:guardedby mu
	launched bool
	//lad:guardedby mu
	ring []*job // round-robin service order; executing jobs are popped out
	//lad:guardedby mu
	jobs map[string]*job // live (non-terminal) jobs by id
	//lad:guardedby mu
	executing int
	//lad:guardedby mu
	runNanosTotal int64

	// Exported counters and histograms. units is also the ETA's
	// denominator; it moves together with runNanosTotal under mu.
	batches, units                     *metrics.Counter
	jobsDone, jobsFailed, jobsCanceled *metrics.Counter
	waitHist, runHist                  *metrics.Histogram
}

// New builds a Scheduler; no goroutines start until the first Submit.
//
//lad:setup
func New(cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.BatchUnits < 1 {
		cfg.BatchUnits = DefaultBatchUnits
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ctx, stop := context.WithCancel(context.Background())
	const completed = "Scheduler jobs finished, by outcome."
	s := &Scheduler{
		workers:      cfg.Workers,
		batch:        cfg.BatchUnits,
		save:         cfg.Save,
		drop:         cfg.Drop,
		ctx:          ctx,
		stop:         stop,
		jobs:         make(map[string]*job),
		batches:      reg.Counter("ladd_sched_batches_total", "Trial batches the scheduler has executed."),
		units:        reg.Counter("ladd_sched_trials_total", "Monte-Carlo trials completed across all training jobs."),
		jobsDone:     reg.Counter("ladd_sched_jobs_completed_total", completed, "outcome", "ok"),
		jobsFailed:   reg.Counter("ladd_sched_jobs_completed_total", completed, "outcome", "failed"),
		jobsCanceled: reg.Counter("ladd_sched_jobs_completed_total", completed, "outcome", "canceled"),
		waitHist:     reg.Histogram("ladd_sched_job_wait_seconds", "Time training jobs spent queued before their first batch ran.", durationBounds),
		runHist:      reg.Histogram("ladd_sched_job_run_seconds", "Cumulative batch execution time of finished training jobs.", durationBounds),
	}
	s.cond = sync.NewCond(&s.mu)
	reg.Gauge("ladd_sched_queue_depth", "Training jobs parked in the scheduler's round-robin ring (not currently executing a batch).",
		func() float64 { return float64(s.Stats().QueueDepth) })
	reg.Gauge("ladd_sched_jobs_executing", "Training jobs with a batch running right now.",
		func() float64 { return float64(s.Stats().Executing) })
	reg.Gauge("ladd_sched_jobs_active", "Live training jobs (queued + executing).",
		func() float64 { return float64(s.Stats().ActiveJobs) })
	return s
}

// Submit enqueues a job of total units. The returned preclaimed flag is
// true when idle worker capacity exists, i.e. the job's first batch
// starts without queueing — callers use it to report "training" instead
// of "pending" for registrations that hit an idle scheduler, matching
// the synchronous slot claim of the semaphore model this replaces.
// Submitting an id that is still live is an error (terminal ids may be
// reused).
func (s *Scheduler) Submit(id string, total int, task Task, hooks Hooks) (preclaimed bool, err error) {
	if total < 1 {
		total = 1
	}
	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		return false, errors.New("sched: scheduler closed")
	}
	if _, live := s.jobs[id]; live {
		s.mu.Unlock()
		return false, fmt.Errorf("sched: job %q already live", id)
	}
	if !s.launched {
		s.launched = true
		for i := 0; i < s.workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	j := &job{id: id, total: total, task: task, hooks: hooks, state: StateQueued, enqueued: time.Now()}
	preclaimed = len(s.ring)+s.executing < s.workers
	if preclaimed {
		j.state = StateRunning
	}
	s.jobs[id] = j
	s.ring = append(s.ring, j)
	s.cond.Signal()
	s.mu.Unlock()
	return preclaimed, nil
}

// Cancel marks a live job canceled. A job parked on the ring completes
// immediately (OnDone with ErrCanceled, from this goroutine); a job
// inside a batch completes when that batch returns — tasks that honor a
// cancellation channel of their own return early, others finish the
// batch first. Unknown or already-terminal ids are a no-op.
func (s *Scheduler) Cancel(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.canceled {
		s.mu.Unlock()
		return
	}
	j.canceled = true
	if j.executing {
		// The worker observes canceled when RunBatch returns.
		s.mu.Unlock()
		return
	}
	for i, q := range s.ring {
		if q == j {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			break
		}
	}
	res := s.completeLocked(j, StateCanceled, ErrCanceled)
	s.mu.Unlock()
	s.finish(j, res)
}

// Status reports a live job's state, ring position, progress, and ETA.
// Terminal jobs are forgotten (ok=false).
func (s *Scheduler) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	st := JobStatus{State: j.state, UnitsDone: j.unitsDone, UnitsTotal: j.total}
	if !j.executing {
		for i, q := range s.ring {
			if q == j {
				st.QueuePosition = i
				break
			}
		}
	}
	if units := s.units.Load(); units > 0 {
		nsPerUnit := float64(s.runNanosTotal) / float64(units)
		remaining := float64(j.total - j.unitsDone)
		contention := float64(len(s.jobs)) / float64(s.workers)
		if contention < 1 {
			contention = 1
		}
		st.ETA = time.Duration(remaining * nsPerUnit * contention)
	}
	return st, true
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth:   len(s.ring),
		Executing:    s.executing,
		ActiveJobs:   len(s.jobs),
		Batches:      s.batches.Load(),
		Units:        s.units.Load(),
		JobsDone:     s.jobsDone.Load(),
		JobsFailed:   s.jobsFailed.Load(),
		JobsCanceled: s.jobsCanceled.Load(),
		Wait:         s.waitHist.Totals(),
		Run:          s.runHist.Totals(),
	}
}

// Close stops the workers. Batches in flight finish; parked jobs are
// abandoned without a terminal callback, so Close belongs in setup
// paths (reconfiguration before serving) and tests, not live draining.
func (s *Scheduler) Close() {
	s.stop()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker is one service loop: pop the ring head, run one batch, requeue
// at the tail. Fairness is the ring discipline itself — every live job
// gets one batch per cycle.
//
//lad:ctx
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		if s.ctx.Err() != nil {
			return
		}
		j, ok := s.next()
		if !ok {
			return
		}
		s.runOne(j)
	}
}

// next blocks until a job is available or the scheduler closes.
//
//lad:ctx
func (s *Scheduler) next() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.ctx.Err() != nil {
			return nil, false
		}
		if len(s.ring) > 0 {
			break
		}
		s.cond.Wait()
	}
	j := s.ring[0]
	s.ring = s.ring[1:]
	j.executing = true
	j.state = StateRunning
	s.executing++
	return j, true
}

// runOne executes one batch turn of job j.
func (s *Scheduler) runOne(j *job) {
	s.mu.Lock()
	if j.canceled {
		j.executing = false
		s.executing--
		res := s.completeLocked(j, StateCanceled, ErrCanceled)
		s.mu.Unlock()
		s.finish(j, res)
		return
	}
	firstBatch := !j.started
	if firstBatch {
		j.started = true
		j.waitSecs = time.Since(j.enqueued).Seconds()
		s.waitHist.Observe(j.waitSecs)
	}
	s.mu.Unlock()

	if firstBatch && j.hooks.OnStart != nil {
		j.hooks.OnStart()
	}
	t0 := time.Now()
	ran, done, err := j.task.RunBatch(s.batch)
	elapsed := time.Since(t0)
	if err == nil && !done && s.save != nil {
		if ck, ok := j.task.(Checkpointer); ok {
			if data, ok := ck.Checkpoint(); ok {
				s.save(j.id, data)
			}
		}
	}

	s.mu.Lock()
	j.executing = false
	s.executing--
	j.unitsDone += ran
	j.runNanos += elapsed.Nanoseconds()
	s.batches.Inc()
	s.units.Add(uint64(ran))
	s.runNanosTotal += elapsed.Nanoseconds()
	var res JobResult
	terminal := true
	switch {
	case err != nil:
		res = s.completeLocked(j, StateFailed, err)
	case done:
		res = s.completeLocked(j, StateDone, nil)
	case j.canceled:
		res = s.completeLocked(j, StateCanceled, ErrCanceled)
	default:
		terminal = false
		s.ring = append(s.ring, j)
		s.cond.Signal()
	}
	s.mu.Unlock()
	if terminal {
		s.finish(j, res)
	}
}

// completeLocked moves j to a terminal state and forgets it.
//
//lad:requires mu
func (s *Scheduler) completeLocked(j *job, st JobState, err error) JobResult {
	j.state = st
	switch st {
	case StateDone:
		s.jobsDone.Inc()
	case StateFailed:
		s.jobsFailed.Inc()
	case StateCanceled:
		s.jobsCanceled.Inc()
	}
	runSecs := float64(j.runNanos) / 1e9
	if j.started {
		s.runHist.Observe(runSecs)
	}
	delete(s.jobs, j.id)
	return JobResult{Err: err, WaitSeconds: j.waitSecs, RunSeconds: runSecs, UnitsDone: j.unitsDone}
}

// finish fires the terminal-state side effects outside scheduler locks.
func (s *Scheduler) finish(j *job, res JobResult) {
	if s.drop != nil {
		s.drop(j.id)
	}
	if j.hooks.OnDone != nil {
		j.hooks.OnDone(res)
	}
}
