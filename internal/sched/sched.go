// Package sched is the fair-share training scheduler: jobs submit as a
// total number of work units (benign trials), the scheduler runs them
// one batch at a time, and between batches a job goes to the tail of a
// round-robin ring. With K queued equal-cost jobs and one batch at a
// time, every job finishes within ~K× its solo time — no job convoys
// behind another's 100k-trial run, which is the property the
// one-goroutine-per-job-behind-a-semaphore model it replaces could not
// give. A batch runs on a goroutine started for it at dispatch, so the
// scheduler needs no teardown.
//
// The scheduler is the one layer that knows the contention, so it also
// decides each batch's fan-out as the batch starts: the training budget
// divided by the batches that can run at once. The budget is GOMAXPROCS
// while the daemon serves no checks and one core fewer (never below 1)
// while it does (Config.Served), so checks keep a core while a detector
// trains. A job training alone uses every core while no checks are
// served.
//
// The scheduler is deliberately storage- and domain-agnostic: tasks are
// an interface and a submission's only record is the *Job handle Submit
// returns. The serving pool owns the mapping onto detectors and specs,
// and it owns checkpointing: its task persists its own progress between
// batches. The scheduler's counters, gauges and wait/run histograms are
// ladd_sched_* families in the metrics registry the pool passes in
// (Config.Metrics).
package sched

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Task is one schedulable job body. RunBatch executes up to n work
// units on at most procs goroutines and reports how many ran and
// whether the job is complete; procs is the batch's share of the cores,
// decided as the batch starts (at least 1). cancel is the job's cancel
// channel, closed by Job.Cancel, which a long batch may watch to return
// early. The scheduler runs at most one batch of a job at a time (no
// concurrent RunBatch on the same Task), so implementations need no
// internal locking against the scheduler. A returned error terminates
// the job.
type Task interface {
	RunBatch(n, procs int, cancel <-chan struct{}) (ran int, done bool, err error)
}

// ErrCanceled terminates a job whose Cancel arrived before it completed.
var ErrCanceled = errors.New("sched: job canceled")

// DefaultBatchUnits is the batch size when Config.BatchUnits is unset:
// small enough that a paper-scale spec returns to the ring several
// times per run, large enough that batch turnover is noise.
const DefaultBatchUnits = 500

// Config sizes a Scheduler.
type Config struct {
	// Workers caps the concurrent batch executions; < 1 means 1.
	Workers int
	// BatchUnits is the work-unit budget per batch turn; < 1 means
	// DefaultBatchUnits.
	BatchUnits int
	// Metrics receives the scheduler's metric families; nil keeps them
	// in a private registry. A scheduler rebuilt on the same registry
	// continues its predecessor's counters.
	Metrics *metrics.Registry
	// Served reads the work the daemon has served so far (checks scored
	// and corrections made); it must never decrease. While it advances,
	// training leaves one core to that work. nil means nothing is ever
	// served, so training always has every core.
	Served func() uint64
}

// JobResult is handed to a job's onDone callback at its terminal state.
type JobResult struct {
	// Err is nil when all units ran, ErrCanceled when the job was
	// canceled first, and the batch error otherwise.
	Err error
	// RunSeconds is the cumulative batch execution time, excluding
	// time parked between turns.
	RunSeconds float64
}

// JobStatus is a point-in-time view of a job.
type JobStatus struct {
	// Started is true once a batch of the job has been dispatched: at
	// Submit when a batch place and the training budget had room, so
	// its first batch starts without queueing, or later from the ring.
	Started bool
	// QueuePosition is the number of jobs ahead in the service ring:
	// 0 means executing now or next in line.
	QueuePosition int
	UnitsDone     int
	// ETA estimates time until completion from the observed core time
	// per unit and the job's current share of the training budget; 0
	// when no batch has completed yet (no throughput sample to
	// extrapolate from).
	ETA time.Duration
}

// Stats is a point-in-time snapshot of the scheduler's gauges and
// counters, the values its ladd_sched_* families export.
type Stats struct {
	// QueueDepth is the number of jobs parked on the ring waiting for a
	// batch turn; Executing the number currently running a batch;
	// ActiveJobs the total live (non-terminal) jobs.
	QueueDepth int
	Executing  int
	ActiveJobs int
	// TrainingCores is the training budget: the cores a batch
	// dispatched now may share (see Scheduler.budgetLocked).
	TrainingCores int
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

// Job is the handle of one submission and the scheduler's only record
// of it. s, total and cancel are immutable after Submit; everything else
// is guarded by the owning Scheduler's mu. task and onDone are nil once
// the job is terminal, so a finished handle pins neither the task's
// state nor whatever its callback captured.
type Job struct {
	s      *Scheduler
	total  int
	cancel chan struct{}

	task      Task
	onDone    func(JobResult)
	canceled  bool
	executing bool // a batch is dispatched and not yet accounted
	started   bool // see JobStatus.Started
	ran       bool // first batch dispatched (wait time latched)
	unitsDone int
	enqueued  time.Time
	runNanos  int64
}

// Scheduler interleaves submitted jobs' batches. It owns no standing
// goroutines: each dispatched batch runs on a goroutine of its own that
// exits once the batch is accounted, so an idle or dropped scheduler
// holds nothing running.
type Scheduler struct {
	//lad:guardedby setup
	workers int
	//lad:guardedby setup
	batch int
	//lad:guardedby setup
	served func() uint64

	mu sync.Mutex
	//lad:guardedby mu
	ring []*Job // round-robin service order; executing jobs are popped out
	//lad:guardedby mu
	live int // non-terminal jobs
	//lad:guardedby mu
	executing int
	//lad:guardedby mu
	coreNanosTotal float64 // Σ batch wall ns × the batch's granted procs
	//lad:guardedby mu
	servedMark uint64 // served() at the budget's last look
	//lad:guardedby mu
	serving bool // served work seen since the last batch that ran without any
	//lad:guardedby mu
	remainderHeld bool // an executing batch holds the budget's remainder
	//lad:guardedby mu
	procsInUse int // Σ the running batches' granted procs

	// Exported counters and histograms. units is also the ETA's
	// denominator; it moves together with coreNanosTotal under mu.
	batches, units                     *metrics.Counter
	jobsDone, jobsFailed, jobsCanceled *metrics.Counter
	waitHist, runHist                  *metrics.Histogram
}

// New builds a Scheduler; it starts no goroutine.
//
//lad:setup
func New(cfg Config) *Scheduler {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.BatchUnits < 1 {
		cfg.BatchUnits = DefaultBatchUnits
	}
	if cfg.Served == nil {
		cfg.Served = func() uint64 { return 0 }
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	const completed = "Scheduler jobs finished, by outcome."
	s := &Scheduler{
		workers:      cfg.Workers,
		batch:        cfg.BatchUnits,
		served:       cfg.Served,
		servedMark:   cfg.Served(),
		batches:      reg.Counter("ladd_sched_batches_total", "Trial batches the scheduler has executed."),
		units:        reg.Counter("ladd_sched_trials_total", "Monte-Carlo trials completed across all training jobs."),
		jobsDone:     reg.Counter("ladd_sched_jobs_completed_total", completed, "outcome", "ok"),
		jobsFailed:   reg.Counter("ladd_sched_jobs_completed_total", completed, "outcome", "failed"),
		jobsCanceled: reg.Counter("ladd_sched_jobs_completed_total", completed, "outcome", "canceled"),
		waitHist:     reg.Histogram("ladd_sched_job_wait_seconds", "Time training jobs spent queued before their first batch ran.", durationBounds),
		runHist:      reg.Histogram("ladd_sched_job_run_seconds", "Cumulative batch execution time of finished training jobs.", durationBounds),
	}
	reg.Gauge("ladd_sched_queue_depth", "Training jobs parked in the scheduler's round-robin ring (not currently executing a batch).",
		func() float64 { return float64(s.Stats().QueueDepth) })
	reg.Gauge("ladd_sched_jobs_executing", "Training jobs with a batch running right now.",
		func() float64 { return float64(s.Stats().Executing) })
	reg.Gauge("ladd_sched_jobs_active", "Live training jobs (queued + executing).",
		func() float64 { return float64(s.Stats().ActiveJobs) })
	reg.Gauge("ladd_sched_training_cores", "Cores training batches may share now: GOMAXPROCS, one fewer while checks or corrections are being served.",
		func() float64 { return float64(s.Stats().TrainingCores) })
	return s
}

// Submit enqueues a job of total units and returns its handle. onDone,
// when non-nil, fires once at the terminal state, outside scheduler
// locks. When a batch place and the training budget have room for
// another batch the job is Started from the moment Submit returns —
// callers use that to report "training" instead of "pending" for
// submissions that hit an idle scheduler.
func (s *Scheduler) Submit(total int, task Task, onDone func(JobResult)) *Job {
	if total < 1 {
		total = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &Job{s: s, total: total, cancel: make(chan struct{}), task: task, onDone: onDone, enqueued: time.Now()}
	s.live++
	s.ring = append(s.ring, j)
	s.dispatchLocked()
	return j
}

// Cancel cancels the job and closes its cancel channel. A job parked on
// the ring completes immediately (onDone with ErrCanceled, from this
// goroutine); a job inside a batch completes when that batch returns —
// tasks that watch the cancel channel return early, others finish the
// batch first. Canceling a terminal job is a no-op.
func (j *Job) Cancel() {
	s := j.s
	s.mu.Lock()
	if j.canceled || j.task == nil {
		s.mu.Unlock()
		return
	}
	j.canceled = true
	close(j.cancel)
	if j.executing {
		// runOne observes canceled when the batch returns.
		s.mu.Unlock()
		return
	}
	for i, q := range s.ring {
		if q == j {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			break
		}
	}
	finish := s.completeLocked(j, s.jobsCanceled, ErrCanceled)
	s.mu.Unlock()
	finish()
}

// Status reports the job's start, ring position, progress, and ETA. A
// terminal job reports its final progress with no position or ETA.
func (j *Job) Status() JobStatus {
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{Started: j.started, UnitsDone: j.unitsDone}
	if j.task == nil {
		return st
	}
	if !j.executing {
		for i, q := range s.ring {
			if q == j {
				st.QueuePosition = i
				break
			}
		}
	}
	if units := s.units.Load(); units > 0 {
		// Core time per unit does not depend on the shares batches ran
		// at; this job's share of the training budget from here on is
		// 1/live of it (the ring gives every live job one batch per
		// cycle).
		coreNsPerUnit := s.coreNanosTotal / float64(units)
		remaining := float64(j.total - j.unitsDone)
		st.ETA = time.Duration(remaining * coreNsPerUnit * float64(s.live) / float64(s.budgetLocked()))
	}
	return st
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth:    len(s.ring),
		Executing:     s.executing,
		ActiveJobs:    s.live,
		TrainingCores: s.budgetLocked(),
		Batches:       s.batches.Load(),
		Units:         s.units.Load(),
		JobsDone:      s.jobsDone.Load(),
		JobsFailed:    s.jobsFailed.Load(),
		JobsCanceled:  s.jobsCanceled.Load(),
		Wait:          s.waitHist.Totals(),
		Run:           s.runHist.Totals(),
	}
}

// dispatchLocked starts batches from the ring head while fewer than
// min(Workers, B) run, each on a goroutine of its own. A batch can only
// become runnable at Submit or when another batch ends — that frees a
// batch's place and is the only moment the budget grows — so those are
// the two callers. Fairness is the ring discipline itself: every live
// job gets one batch per cycle.
//
//lad:requires mu
func (s *Scheduler) dispatchLocked() {
	for len(s.ring) > 0 && s.executing < min(s.workers, s.budgetLocked()) {
		j := s.ring[0]
		s.ring = s.ring[1:]
		j.executing = true
		j.started = true
		s.executing++
		go s.runOne(j)
	}
}

// runOne executes one batch turn of job j, accounts it, requeues the
// job at the tail unless it is terminal, and dispatches whatever the
// batch's end made runnable. A canceled job completes as canceled even
// when its batch returned an error: a task that watches the cancel
// channel reports its own abort as one.
func (s *Scheduler) runOne(j *Job) {
	s.mu.Lock()
	var (
		ran       int
		done      bool
		err       error
		remainder bool
	)
	// A job canceled between dispatch and here runs no batch.
	if !j.canceled {
		// The grant is decided as the batch starts, so submissions that
		// arrive in a burst all count in live: the budget split over the
		// batches that can run at once, and the remainder to one of them
		// while those cores are free, so an odd budget idles no core.
		budget := s.budgetLocked()
		slots := min(s.workers, s.live, budget)
		procs := budget / slots
		if rem := budget % slots; rem > 0 && !s.remainderHeld && s.procsInUse+procs+rem <= budget {
			procs += rem
			remainder, s.remainderHeld = true, true
		}
		s.procsInUse += procs
		servedFrom := s.servedMark
		if !j.ran {
			j.ran = true
			s.waitHist.Observe(time.Since(j.enqueued).Seconds())
		}
		task := j.task
		s.mu.Unlock()

		t0 := time.Now()
		ran, done, err = task.RunBatch(s.batch, procs, j.cancel)
		elapsed := time.Since(t0).Nanoseconds()

		s.mu.Lock()
		s.procsInUse -= procs
		s.budgetLocked() // served work during the batch counts before the batch can clear it
		if s.servedMark == servedFrom {
			// A whole batch ran with no served work: serving has stopped.
			s.serving = false
		}
		j.unitsDone += ran
		j.runNanos += elapsed
		s.batches.Inc()
		s.units.Add(uint64(ran))
		s.coreNanosTotal += float64(elapsed) * float64(procs)
	}
	// End the batch: give back its place and its remainder core.
	j.executing = false
	s.executing--
	if remainder {
		s.remainderHeld = false
	}
	var finish func()
	switch {
	case err == nil && done:
		finish = s.completeLocked(j, s.jobsDone, nil)
	case j.canceled:
		finish = s.completeLocked(j, s.jobsCanceled, ErrCanceled)
	case err != nil:
		finish = s.completeLocked(j, s.jobsFailed, err)
	default:
		s.ring = append(s.ring, j)
	}
	s.dispatchLocked()
	s.mu.Unlock()
	if finish != nil {
		finish()
	}
}

// budgetLocked is the training budget B: the cores the batches that can
// run at once share between them, and the most batches that may run at
// once. B is GOMAXPROCS while the daemon serves no checks and
// GOMAXPROCS−1 (never below 1) while it does, so a check does not wait
// for a core behind trial goroutines that never block. Served work
// lowers B as soon as the scheduler sees it advance — it looks at every
// dispatch, submission, status read and batch end — and only a batch
// that runs start to finish with no served work raises B again, so two
// looks a moment apart cannot mistake a steady check stream for an idle
// daemon. With no served work (a boot warmup, -warmup-only) a lone job
// trains on every core.
//
// A batch's grant is B split over min(Workers, live jobs, B) batches,
// fixed for the batch's duration. So a job that arrives while a lone
// job's batch runs oversubscribes the cores for at most that one batch;
// the lone job's next batch starts at the smaller share.
//
//lad:requires mu
func (s *Scheduler) budgetLocked() int {
	if v := s.served(); v != s.servedMark {
		s.servedMark, s.serving = v, true
	}
	b := runtime.GOMAXPROCS(0)
	if s.serving {
		b--
	}
	return max(1, b)
}

// completeLocked moves j to its terminal state, counting it under
// outcome, and returns the onDone invocation for the caller to run
// outside the lock.
//
//lad:requires mu
func (s *Scheduler) completeLocked(j *Job, outcome *metrics.Counter, err error) func() {
	outcome.Inc()
	res := JobResult{Err: err, RunSeconds: float64(j.runNanos) / 1e9}
	if j.ran {
		s.runHist.Observe(res.RunSeconds)
	}
	s.live--
	onDone := j.onDone
	j.task, j.onDone = nil, nil
	return func() {
		if onDone != nil {
			onDone(res)
		}
	}
}
