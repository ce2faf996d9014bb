// Package serve is the online serving layer of the LAD reproduction: a
// stdlib-only HTTP/JSON front end that turns a trained detector's pure
// Check(observation, location) function into a high-throughput scoring
// service. The pieces:
//
//   - DetectorPool holds detector *resources*: named, stateful entries
//     keyed by a canonical hash of deployment + training config + metric.
//     Registration is asynchronous — a resource moves through
//     pending → training → ready | failed while the caller polls — and
//     ready resources retain their benign score sample so the operating
//     point can be re-cut (/rethreshold) without retraining.
//   - Server exposes the v2 resource API (/v2/detectors and per-detector
//     check, check/batch, correct, rethreshold verbs); /healthz and a
//     Prometheus-style /metrics ride along.
//   - Every metric lives in one internal/metrics registry that the pool
//     creates (metrics.go): the pool, its training scheduler and the
//     Server register their series there, and /metrics writes it.
//
// cmd/ladd wires this package into a daemon; the public client package
// (repro/client) speaks the v2 API; bench/run.sh measures sustained
// throughput against it.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/mathx"
	"repro/internal/sched"
	"repro/internal/store"
)

// TrainSpec is the JSON-facing subset of core.TrainConfig a client may
// request a detector trained with.
type TrainSpec struct {
	Trials      int     `json:"trials"`
	Percentile  float64 `json:"percentile"`
	Seed        uint64  `json:"seed"`
	KeepInField bool    `json:"keep_in_field"`
	// SimEpoch selects the simulation epoch (core.TrainConfig.SimEpoch):
	// 0 (omitted) and 2 the table-sampler path, the served default; 1 the
	// bit-identical reference. Unlike core.TrainConfig, whose zero value
	// stays epoch 1, a spec's 0 means epoch 2.
	SimEpoch int `json:"sim_epoch,omitempty"`
}

// simEpoch is the epoch the spec trains at: SimEpoch with 0 read as 2.
func (t TrainSpec) simEpoch() int {
	if t.SimEpoch == 0 {
		return 2
	}
	return t.SimEpoch
}

// TrainConfig converts the spec to the core training configuration,
// with the epoch made explicit. Workers is deliberately not
// client-controllable.
func (t TrainSpec) TrainConfig() core.TrainConfig {
	return core.TrainConfig{
		Trials:      t.Trials,
		Percentile:  t.Percentile,
		Seed:        t.Seed,
		KeepInField: t.KeepInField,
		SimEpoch:    t.simEpoch(),
	}
}

// DetectorSpec fully determines a trained detector: the deployment
// knowledge, the metric, and how the threshold is trained.
type DetectorSpec struct {
	Deployment deploy.Config `json:"deployment"`
	Metric     string        `json:"metric"`
	Train      TrainSpec     `json:"train"`
}

// Key returns the canonical cache key: a hash of the deployment config
// hash, the metric name, and every training field. Two specs share a key
// iff they would train bit-identical detectors.
func (s DetectorSpec) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", s.Deployment.Hash(), s.Metric)
	w := deploy.NewHashWriter(h)
	w.Int(s.Train.Trials)
	w.Float(s.Train.Percentile)
	w.Uint(s.Train.Seed)
	w.Bool(s.Train.KeepInField)
	// The hash carries the epoch a spec trains at, so 0 and 2 share a
	// key. Epoch 1 joins it as nothing: its specs keep the pre-epoch key,
	// so every epoch-1 snapshot, including those persisted before the
	// field existed, keeps passing adoption's identity check.
	if e := s.Train.simEpoch(); e > 1 {
		w.Int(e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ID returns the detector resource id the spec registers under: a short
// stable prefix of the spec key. Registration is therefore idempotent —
// the same spec always names the same resource.
func (s DetectorSpec) ID() string { return "d" + s.Key()[:16] }

// Validate rejects specs the trainer would reject, with client-facing
// messages.
func (s DetectorSpec) Validate() error {
	if err := s.Deployment.Validate(); err != nil {
		return err
	}
	if core.MetricByName(s.Metric) == nil {
		return fmt.Errorf("serve: unknown metric %q", s.Metric)
	}
	if s.Train.Trials <= 0 {
		return fmt.Errorf("serve: train.trials must be positive")
	}
	if !(s.Train.Percentile > 0 && s.Train.Percentile < 100) { // false for NaN
		return fmt.Errorf("serve: train.percentile must be in (0, 100)")
	}
	if e := s.Train.SimEpoch; e < 0 || e > 2 {
		return fmt.Errorf("serve: train.sim_epoch must be 0 (default, epoch 2), 1, or 2")
	}
	return nil
}

// ErrInvalidSpec marks training failures caused by the spec itself — a
// config the validator (or model construction) rejects — as opposed to
// resource exhaustion or a genuine trainer bug. The HTTP layer maps it
// to 400: the request was wrong, the server is fine.
var ErrInvalidSpec = errors.New("serve: invalid detector spec")

// DetectorState is one phase of a detector resource's lifecycle.
type DetectorState string

const (
	// StatePending: registered, queued on the training scheduler; the
	// job's first trial batch has not been dispatched yet.
	StatePending DetectorState = "pending"
	// StateTraining: the Monte-Carlo training run has started (its trial
	// batches interleave with other jobs' on the scheduler).
	StateTraining DetectorState = "training"
	// StateReady: trained; checks, corrections and rethresholds serve.
	StateReady DetectorState = "ready"
	// StateFailed: training failed; the resource stays inspectable (the
	// error is in its status) until deleted, re-registered, or purged
	// under pool pressure. Failed resources never hold limit slots.
	StateFailed DetectorState = "failed"
)

// DetectorStates lists every lifecycle state, in order; ladd_detectors
// exports a gauge for each, including zeros.
var DetectorStates = []DetectorState{StatePending, StateTraining, StateReady, StateFailed}

// DetectorStatus is a point-in-time snapshot of one detector resource —
// what GET /v2/detectors/{id} reports.
type DetectorStatus struct {
	ID    string
	State DetectorState
	Spec  DetectorSpec
	// Threshold and Percentile are the current operating point (valid in
	// StateReady). Percentile starts at the spec's training percentile
	// and moves when the resource is rethresholded.
	Threshold  float64
	Percentile float64
	// BenignScores is the retained benign sample size (StateReady).
	BenignScores int
	// TrainSeconds is the wall time of the training run (StateReady).
	TrainSeconds float64
	// Err is the training failure (StateFailed).
	Err error
	// QueuePosition, TrialsDone and EtaMS describe the live training job
	// (pending/training states): the number of jobs ahead in the
	// scheduler's service ring (0 = executing or next in line), trials
	// completed so far, and the scheduler's completion estimate in
	// milliseconds (0 = no throughput sample yet). QueuePosition is -1
	// when no job information is available (ready/failed, or adopted
	// entries that never trained here).
	QueuePosition int
	TrialsDone    int
	EtaMS         int64
}

// poolEntry is one detector resource.
type poolEntry struct {
	id   string
	spec DetectorSpec

	mu sync.Mutex
	//lad:guardedby mu
	state DetectorState
	//lad:guardedby mu
	det *core.Detector
	//lad:guardedby mu
	scores []float64 // ascending-sorted retained benign sample
	//lad:guardedby mu
	percentile float64 // current operating point
	//lad:guardedby mu
	trainSecs float64
	//lad:guardedby mu
	err error
	//lad:guardedby mu
	evicted bool
	// corr is the resource's shared plain corrector, built lazily on the
	// first /correct (its pooled localization sessions amortize across
	// requests).
	// Guarded by corrOnce, not mu: the once is the synchronization.
	corrOnce sync.Once
	corr     *core.Corrector

	// done is closed when the current training flight finishes (ready or
	// failed). Re-registration after a failure installs a fresh channel.
	//lad:guardedby mu
	done chan struct{}

	// job is the current flight's scheduler handle: its status tells
	// pending from training, and Delete cancels through it. nil on
	// adopted entries (no flight ever ran) and while a re-arm submits.
	//lad:guardedby mu
	job *sched.Job

	// saveMu serializes the store writes of this entry's record —
	// checkpoint, ready and rethreshold saves and the delete — so they
	// cannot land on disk out of order: each save rebuilds its record
	// from live state under saveMu and skips once evicted is set, so the
	// last writer always persists the newest state and nothing outlives
	// a Delete. Taken before mu, never while holding it.
	saveMu sync.Mutex
}

// status snapshots the entry. A live flight is pending until its job's
// first batch is dispatched and training after; its queue position, progress and
// ETA come from the same job snapshot.
func (e *poolEntry) status() DetectorStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := DetectorStatus{
		ID:            e.id,
		State:         e.state,
		Spec:          e.spec,
		Percentile:    e.percentile,
		Err:           e.err,
		QueuePosition: -1,
	}
	switch {
	case e.state == StateReady:
		st.Threshold = e.det.Threshold()
		st.BenignScores = len(e.scores)
		st.TrainSeconds = e.trainSecs
	case e.state == StatePending && e.job != nil:
		js := e.job.Status()
		if js.Started {
			st.State = StateTraining
		}
		st.QueuePosition = js.QueuePosition
		st.TrialsDone = js.UnitsDone
		st.EtaMS = js.ETA.Milliseconds()
	}
	return st
}

// detector returns the trained detector when the entry is ready.
func (e *poolEntry) detector() (*core.Detector, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != StateReady {
		return nil, false
	}
	return e.det, true
}

// corrector returns the entry's shared plain corrector (ready entries
// only). The caller passes the detector it already fetched under the
// entry's mutex, so the once-guarded build touches no mu-guarded state
// — the once closure runs lock-free by design.
func (e *poolEntry) corrector(det *core.Detector) *core.Corrector {
	e.corrOnce.Do(func() {
		e.corr = core.NewCorrector(det.Model())
	})
	return e.corr
}

// ErrPoolFull is returned when admitting a new spec would exceed the
// pool's entry limit. Training is expensive and ready entries are never
// evicted implicitly, so an unbounded pool would let clients sweeping
// seeds pin arbitrary CPU and memory; the HTTP layer maps this to 429.
var ErrPoolFull = errors.New("serve: detector pool is full")

// DefaultTrainConcurrency is the number of training runs a pool lets
// proceed at once. A batch gets the scheduler's training budget divided
// by the jobs that can run at once, so concurrent cold starts share the
// machine instead of oversubscribing it. The budget is GOMAXPROCS, one
// core fewer while checks are served, so a lone job gets every core
// while none are; 2 overlaps one run's tail with the next's ramp-up.
const DefaultTrainConcurrency = 2

// DetectorPool holds detector resources keyed by DetectorSpec.Key (and
// addressable by DetectorSpec.ID). Training is asynchronous and
// single-flight: Register returns immediately with the resource's state
// while its job runs on the fair-share training scheduler; concurrent
// registrations of the same spec share the flight. Safe for
// concurrent use.
type DetectorPool struct {
	mu sync.Mutex
	//lad:guardedby mu
	entries map[string]*poolEntry // by spec key
	//lad:guardedby mu
	byID map[string]*poolEntry // same entries, by resource id
	//lad:guardedby mu
	limit int

	poolMetrics // counters and histograms, registered in metrics.go

	// sched is the fair-share training scheduler: it interleaves queued
	// jobs' trial batches round-robin, at most schedWorkers at once, and
	// grants each batch its share of the cores as it starts. schedWorkers
	// and schedBatch are its configuration (rebuildSched applies them).
	//lad:guardedby setup
	sched *sched.Scheduler
	//lad:guardedby setup
	schedWorkers int
	//lad:guardedby setup
	schedBatch int
	// expBudget is the pool-wide expectation-cache admission budget in
	// bytes, shared by every detector the pool trains. Created in
	// account-only mode (capacity 0 = unlimited, bytes still tracked for
	// /metrics); SetExpCacheByteBudget arms the cap.
	//lad:guardedby setup
	expBudget *core.ExpCacheBudget
	// newTask builds a flight's scheduler task and its unit budget. Every
	// pool trains through newTrialTask; the field exists so this
	// package's tests can swap in a fake whole-run trainer.
	//lad:guardedby setup
	newTask func(e *poolEntry) (poolTask, int)
	// snapStore, when set, persists ready detectors across restarts and
	// feeds boot-time adoption; nil (the default) keeps the pool purely
	// in-memory. See persist.go.
	//lad:guardedby setup
	snapStore store.Store
	// writes counts store writes in flight; WaitSaves drains it.
	writes pendingWrites
}

// meanTrainSeconds is the average successful training duration, NaN
// before the first completed run.
func (p *DetectorPool) meanTrainSeconds() float64 {
	t := p.trainSeconds.Totals()
	if t.Count == 0 {
		return math.NaN()
	}
	return t.Sum / float64(t.Count)
}

// NewDetectorPool returns an empty pool. limit caps resident live
// (pending/training/ready) entries (0 = unbounded).
func NewDetectorPool(limit int) *DetectorPool {
	p := &DetectorPool{
		entries:   make(map[string]*poolEntry),
		byID:      make(map[string]*poolEntry),
		limit:     limit,
		expBudget: core.NewExpCacheBudget(0),
	}
	p.newTask = p.newTrialTask
	p.registerMetrics()
	p.SetTrainConcurrency(DefaultTrainConcurrency)
	return p
}

// SetTrainConcurrency sets how many trial batches the scheduler may
// execute at once (n <= 0 restores the default). Not
// safe to call while trainings are in flight — configure the pool
// before serving.
//
//lad:setup
func (p *DetectorPool) SetTrainConcurrency(n int) {
	if n <= 0 {
		n = DefaultTrainConcurrency
	}
	p.schedWorkers = n
	p.rebuildSched()
}

// SetSchedBatchTrials sets the trial budget of one scheduler batch turn
// (n <= 0 restores sched.DefaultBatchUnits). Smaller batches interleave
// queued jobs more finely and checkpoint more often at the cost of more
// batch turnover. Configure before serving.
//
//lad:setup
func (p *DetectorPool) SetSchedBatchTrials(n int) {
	if n < 0 {
		n = 0
	}
	p.schedBatch = n
	p.rebuildSched()
}

// rebuildSched swaps in a scheduler with the current configuration.
//
//lad:setup
func (p *DetectorPool) rebuildSched() {
	// Served work is observations scored plus corrections made; status
	// reads, registrations and 202 answers move neither.
	p.sched = sched.New(sched.Config{
		Workers:    p.schedWorkers,
		BatchUnits: p.schedBatch,
		Metrics:    p.reg,
		Served:     func() uint64 { return p.scored.Load() + p.corrected.Load() },
	})
}

// SchedStats snapshots the training scheduler's counters.
func (p *DetectorPool) SchedStats() sched.Stats {
	return p.sched.Stats()
}

// SetExpCacheByteBudget caps the bytes the expectation caches of ALL
// detectors this pool trains may hold between them — resident G/Mu
// entries plus armed log-PMF tables, charged at admission and credited
// on eviction. 0 (the default) removes the cap but keeps accounting, so
// admission behavior is unchanged and the in-use gauge stays live.
// Configure before serving.
func (p *DetectorPool) SetExpCacheByteBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	p.expBudget.SetCapacity(bytes)
}

// Register admits spec as a detector resource and starts (or joins) its
// training flight, returning the resource's current status immediately —
// it never blocks on training. created reports whether this call started
// a new flight (false: the resource already existed in a live state and
// the status is its current one). A resource in StateFailed is retried:
// the same id gets a fresh flight. Admitting a genuinely new spec while
// the pool is at its live-entry limit first purges failed residents and
// then, if still full, returns ErrPoolFull.
//
// When the scheduler has room for another batch, the returned status
// is already StateTraining (the job's first batch starts without
// queueing); otherwise the resource is StatePending until a batch ends. A
// spec that is not resident but whose complete snapshot is in the store
// is adopted instead: StateReady at once, no flight, created false.
func (p *DetectorPool) Register(spec DetectorSpec) (DetectorStatus, bool, error) {
	e, created, err := p.admit(spec)
	if err != nil {
		return DetectorStatus{}, false, err
	}
	if created {
		p.misses.Inc()
	} else {
		p.hits.Inc()
	}
	return e.status(), created, nil
}

// admit is Register without the hit/miss accounting: it returns the live
// entry for spec, creating (or re-arming a failed) one as needed.
func (p *DetectorPool) admit(spec DetectorSpec) (*poolEntry, bool, error) {
	key := spec.Key()
	p.mu.Lock()
	e := p.entries[key]
	if e == nil && p.snapStore != nil {
		// A stored complete record makes the resource ready without a
		// flight. The store read runs outside the pool lock.
		p.mu.Unlock()
		p.adoptRegistered(spec)
		p.mu.Lock()
		e = p.entries[key]
	}
	if e != nil {
		e.mu.Lock()
		failed := e.state == StateFailed
		e.mu.Unlock()
		if failed {
			// Re-arming makes the resource live again, so it must fit the
			// live-entry limit like a fresh admission would (the failed
			// entry itself does not count as live).
			if p.limit > 0 && p.liveCountLocked() >= p.limit {
				p.mu.Unlock()
				return nil, false, ErrPoolFull
			}
			// Retry semantics: a failed resource re-arms in place under
			// the same id. Waiters of the previous flight hold the old
			// (already closed) done channel.
			e.mu.Lock()
			e.state = StatePending
			e.err = nil
			e.done = make(chan struct{})
			e.job = nil
			e.mu.Unlock()
			p.startTraining(e)
		}
		p.mu.Unlock()
		return e, failed, nil
	}
	if p.limit > 0 && p.liveCountLocked() >= p.limit {
		p.purgeFailedLocked()
		if p.liveCountLocked() >= p.limit {
			p.mu.Unlock()
			return nil, false, ErrPoolFull
		}
	}
	e = &poolEntry{
		id:         spec.ID(),
		spec:       spec,
		state:      StatePending,
		percentile: spec.Train.Percentile,
		done:       make(chan struct{}),
	}
	p.entries[key] = e
	p.byID[e.id] = e
	p.startTraining(e)
	p.mu.Unlock()
	return e, true, nil
}

// liveCountLocked counts entries holding limit slots (all but failed).
//
//lad:requires mu
func (p *DetectorPool) liveCountLocked() int {
	n := 0
	for _, e := range p.entries {
		e.mu.Lock()
		if e.state != StateFailed {
			n++
		}
		e.mu.Unlock()
	}
	return n
}

// purgeFailedLocked evicts failed residents to make room for new specs —
// failed resources are kept for inspection only as long as the pool has
// slack, so a burst of bad specs can never brick admission.
//
//lad:requires mu
func (p *DetectorPool) purgeFailedLocked() {
	for key, e := range p.entries {
		e.mu.Lock()
		failed := e.state == StateFailed
		if failed {
			e.evicted = true
		}
		e.mu.Unlock()
		if failed {
			delete(p.entries, key)
			delete(p.byID, e.id)
		}
	}
}

// poolTask is what the pool schedules: a sched.Task that, once done,
// surrenders the trained detector and benign sample for publication.
type poolTask interface {
	sched.Task
	result() (*core.Detector, []float64)
}

// trialTask is the production job body: a core.TrainRun advanced one
// trial batch per scheduler turn. Model construction and checkpoint
// resume happen lazily in the first batch, so spec failures surface as
// job failures (like the monolithic trainer's) and Submit stays cheap.
// The pool owns checkpointing: when a store is configured, the task
// saves the run's progress after every non-final batch, and a later
// flight for the same resource id — after an eviction or a crash-reboot
// — resumes from it bit-identically instead of restarting.
type trialTask struct {
	p      *DetectorPool
	e      *poolEntry
	run    *core.TrainRun
	det    *core.Detector
	scores []float64
	ck     core.Snapshot // reused checkpoint receiver
	buf    []byte        // reused encode buffer
}

// newTrialTask is the pool's newTask: a trialTask budgeted at the
// spec's trial count.
func (p *DetectorPool) newTrialTask(e *poolEntry) (poolTask, int) {
	return &trialTask{p: p, e: e}, e.spec.Train.Trials
}

// RunBatch advances the run by one batch fanned out over the
// scheduler's share for it.
func (t *trialTask) RunBatch(n, procs int, cancel <-chan struct{}) (int, bool, error) {
	if t.run == nil {
		if err := t.init(procs, cancel); err != nil {
			return 0, false, err
		}
	}
	t.run.SetWorkers(procs)
	ran, err := t.run.RunBatch(n)
	if err != nil {
		return ran, false, err
	}
	if !t.run.Done() {
		t.p.saveCheckpoint(t)
		return ran, false, nil
	}
	det, scores, err := t.run.Finish()
	if err != nil {
		return ran, false, err
	}
	t.det, t.scores = det, scores
	return ran, true, nil
}

func (t *trialTask) result() (*core.Detector, []float64) { return t.det, t.scores }

// init builds the run, its model on the batch's procs cores; cancel is
// the job's cancel channel, which the run checks between trial
// dispatches.
func (t *trialTask) init(procs int, cancel <-chan struct{}) error {
	spec := t.e.spec
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	model, err := deploy.NewParallel(spec.Deployment, procs)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	metric := core.MetricByName(spec.Metric)
	if metric == nil {
		return fmt.Errorf("%w: unknown metric %q", ErrInvalidSpec, spec.Metric)
	}
	cfg := spec.Train.TrainConfig()
	cfg.Cancel = cancel
	specKey, depHash := spec.Key(), spec.Deployment.Hash()
	t.run = t.p.resumeRun(t.e.id, specKey, depHash, model, metric, cfg, &t.ck)
	// The receiver's identity is set once, after resume decoded into it.
	t.ck.SpecKey, t.ck.DeploymentHash = specKey, depHash
	if t.run == nil {
		t.run, err = core.NewTrainRun(model, metric, cfg)
	}
	return err
}

// startTraining submits the resource's training flight to the
// scheduler and records the job handle on the entry.
func (p *DetectorPool) startTraining(e *poolEntry) {
	p.jobsStarted.Inc()
	task, units := p.newTask(e)
	job := p.sched.Submit(units, task, func(res sched.JobResult) {
		det, scores := task.result()
		p.finishTraining(e, det, scores, res)
	})
	e.mu.Lock()
	e.job = job
	e.mu.Unlock()
}

// finishTraining publishes a flight's terminal outcome. Failed runs
// leave the entry resident in StateFailed so the error stays
// inspectable; successful runs sort and retain the benign sample and
// install the pool's cache configuration pre-publish. A flight whose
// entry was evicted mid-run (DELETE) still publishes its outcome —
// waiters that joined before the delete get a real result — but
// contributes nothing to the job and duration counters, installs no
// shared cache budget, and retires any budget it did install, so
// detached work neither skews the Retry-After pacing nor leaks budget
// bytes. The run time is the job's scheduler occupancy: execution only,
// excluding time queued or parked between batches (and, for a resumed
// job, excluding the pre-crash flight's time).
func (p *DetectorPool) finishTraining(e *poolEntry, det *core.Detector, scores []float64, res sched.JobResult) {
	// Waiters are released before the record delete or the snapshot
	// save below; counting the flight as a pending write keeps WaitSaves
	// from returning in between.
	p.writes.add()
	defer p.writes.done()
	took := time.Duration(res.RunSeconds * float64(time.Second))
	if res.Err != nil {
		e.mu.Lock()
		evicted := e.evicted
		e.state = StateFailed
		e.err = res.Err
		close(e.done)
		e.mu.Unlock()
		if !evicted {
			p.failures.Inc()
			// A failed spec restarts from scratch on re-arm; its
			// checkpoint must not outlive the sample it came from.
			p.deleteSnapshot(e)
		}
		return
	}
	e.mu.Lock()
	evicted := e.evicted
	e.mu.Unlock()
	if !evicted {
		p.trainSeconds.Observe(took.Seconds())
		p.trainLast.Store(took.Nanoseconds())
		// The shared byte budget is installed pre-publish: the entry is
		// not visible as ready yet, so the cache rebuild cannot race
		// in-flight checks.
		det.SetExpCacheBudget(p.expBudget)
	}
	// Retain the benign sample sorted so rethreshold is a PercentileSorted
	// read. The copy is owned by the entry; Train's callers may reuse
	// theirs.
	retained := append([]float64(nil), scores...)
	sort.Float64s(retained)

	e.mu.Lock()
	e.state = StateReady
	e.det = det
	e.scores = retained
	e.trainSecs = took.Seconds()
	evictedNow := e.evicted
	close(e.done)
	e.mu.Unlock()
	if evictedNow {
		// Deleted between the budget install and publish: Delete cannot
		// have seen e.det, so the retire duty falls on this flight.
		det.RetireExpCache()
		return
	}
	// The final snapshot replaces the flight's checkpoint under the same
	// key (Put is atomic).
	p.persistEntry(e)
}

// await returns the trained detector for spec, registering it and
// blocking until its flight finishes — Server.Warmup's path. Concurrent
// waits for a spec mid-training share the single flight (and its error,
// if it fails); a wait after a failure re-arms the flight, so transient
// failures are not remembered forever.
//
//lad:ctx
func (p *DetectorPool) await(spec DetectorSpec) (*core.Detector, error) {
	e, created, err := p.admit(spec)
	if err != nil {
		return nil, err
	}
	var det *core.Detector
	var trainErr error
	//lint:ignore ladvet/ctxcheck re-wait loop: each iteration blocks on a flight's done channel, and re-arming is rare; context-aware waiting is the ROADMAP's cancellable-scheduling item
	for {
		e.mu.Lock()
		done := e.done
		e.mu.Unlock()
		<-done
		e.mu.Lock()
		det, trainErr = e.det, e.err
		e.mu.Unlock()
		if det != nil || trainErr != nil {
			break
		}
		// det == nil && err == nil: the flight we waited on failed and a
		// concurrent registration re-armed the entry (fresh done channel)
		// before we read the outcome. Wait on the new flight — its result
		// is the current truth for this spec.
	}
	if trainErr != nil {
		// Run failures are counted once per run (in finishTraining), not per
		// waiter: N clients joining one failed flight is one failure.
		return nil, trainErr
	}
	if created {
		p.misses.Inc()
	} else {
		p.hits.Inc()
	}
	return det, nil
}

// Lookup returns the status of the resource named id.
func (p *DetectorPool) Lookup(id string) (DetectorStatus, bool) {
	p.mu.Lock()
	e := p.byID[id]
	p.mu.Unlock()
	if e == nil {
		return DetectorStatus{}, false
	}
	return e.status(), true
}

// Detector returns the trained detector behind id. ok is false when the
// id is unknown or the resource is not ready; st always carries the
// current status when the id exists.
func (p *DetectorPool) Detector(id string) (det *core.Detector, st DetectorStatus, ok bool) {
	p.mu.Lock()
	e := p.byID[id]
	p.mu.Unlock()
	if e == nil {
		return nil, DetectorStatus{}, false
	}
	det, ready := e.detector()
	return det, e.status(), ready
}

// Corrector returns the shared corrector for a ready resource.
func (p *DetectorPool) Corrector(id string) (*core.Corrector, bool) {
	p.mu.Lock()
	e := p.byID[id]
	p.mu.Unlock()
	if e == nil {
		return nil, false
	}
	det, ready := e.detector()
	if !ready {
		return nil, false
	}
	return e.corrector(det), true
}

// List snapshots every resident resource, ordered by id.
func (p *DetectorPool) List() []DetectorStatus {
	p.mu.Lock()
	es := make([]*poolEntry, 0, len(p.byID))
	for _, e := range p.byID {
		es = append(es, e)
	}
	p.mu.Unlock()
	out := make([]DetectorStatus, len(es))
	for i, e := range es {
		out[i] = e.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete evicts the resource named id. A ready resource's expectation
// cache is retired so its reservations return to the shared byte budget
// (in-flight checks keep scoring; their admissions are simply
// uncharged). A mid-training resource is removed from the maps
// immediately and its flight's job is canceled: a queued job completes
// at once, and an executing one's Monte-Carlo run aborts between trial
// dispatches instead of burning cores to completion. The detached
// flight publishes its (canceled) outcome for waiters that joined
// before the delete and skips the job/duration counters. Any persisted
// snapshot is removed from the store. Returns false for unknown ids.
func (p *DetectorPool) Delete(id string) bool {
	p.mu.Lock()
	e := p.byID[id]
	if e == nil {
		p.mu.Unlock()
		return false
	}
	delete(p.byID, id)
	delete(p.entries, e.spec.Key())
	p.mu.Unlock()
	e.mu.Lock()
	e.evicted = true
	det, job := e.det, e.job
	e.mu.Unlock()
	if job != nil {
		// Outside e.mu: a queued job's onDone runs on this goroutine.
		job.Cancel()
	}
	if det != nil {
		det.RetireExpCache()
	}
	p.deleteSnapshot(e)
	return true
}

// Rethreshold re-cuts the resource's operating point: the new threshold
// is the tau-percentile of the retained benign sample, installed on the
// live detector atomically — no retraining, the train counters do not
// move, and in-flight checks see either the old or the new threshold.
// The resource must be ready and tau in (0, 100).
func (p *DetectorPool) Rethreshold(id string, tau float64) (DetectorStatus, error) {
	if !(tau > 0 && tau < 100) { // false for NaN
		return DetectorStatus{}, apiErrorf(CodeInvalidArgument, "percentile must be in (0, 100), got %g", tau)
	}
	p.mu.Lock()
	e := p.byID[id]
	p.mu.Unlock()
	if e == nil {
		return DetectorStatus{}, apiErrorf(CodeNotFound, "no detector %q", id)
	}
	switch st := e.status(); st.State {
	case StateFailed:
		return DetectorStatus{}, apiErrorf(CodeDetectorFailed, "detector %q failed; re-register to retrain", id)
	case StatePending, StateTraining:
		// The job is alive — tell the client to retry, not to give up,
		// paced by its own queue position.
		apiErr := apiErrorf(CodeDetectorTraining, "detector %q is %s", id, st.State)
		apiErr.RetryAfterMS = p.RetryAfter(st).Milliseconds()
		return DetectorStatus{}, apiErr
	}
	// Ready is terminal for an entry, so it still holds under the lock.
	e.mu.Lock()
	th := mathx.PercentileSorted(e.scores, tau)
	e.det.SetThreshold(th)
	e.percentile = tau
	e.mu.Unlock()
	// Persist the moved operating point so /rethreshold survives a
	// restart; asynchronous and best-effort like the post-training save.
	p.persistEntry(e)
	return e.status(), nil
}

// Stats reports cache behavior: resident entries (all states) and the
// cumulative hit/miss/failure counters since the pool was created. Hits
// and misses count spec-keyed lookups (Register and Warmup's wait);
// failures count failed training runs.
func (p *DetectorPool) Stats() (entries int, hits, misses, failures uint64) {
	p.mu.Lock()
	entries = len(p.entries)
	p.mu.Unlock()
	return entries, p.hits.Load(), p.misses.Load(), p.failures.Load()
}

// countState counts resident resources in lifecycle state st.
func (p *DetectorPool) countState(st DetectorState) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.entries {
		if e.status().State == st {
			n++
		}
	}
	return n
}

// RetryAfter estimates how long a client should wait before re-polling
// the not-yet-ready resource st describes: the scheduler's completion
// estimate when it has a throughput sample, otherwise the mean
// successful training duration (a conservative default before the
// first) multiplied by (queue position + 1) — a deep queue must not
// advertise the same optimistic hint as the job at the head. Clamped to
// [100ms, 30s]: never busy-loop a client, never park one past the point
// the estimate is guesswork.
func (p *DetectorPool) RetryAfter(st DetectorStatus) time.Duration {
	d := time.Duration(st.EtaMS) * time.Millisecond
	if d <= 0 {
		d = time.Second
		if mean := p.meanTrainSeconds(); !math.IsNaN(mean) {
			d = time.Duration(mean * float64(time.Second))
		}
		d *= time.Duration(max(st.QueuePosition, 0) + 1)
	}
	return min(max(d, 100*time.Millisecond), 30*time.Second)
}

// ExpCacheStats aggregates the per-detector expectation caches across
// every trained detector resident in the pool: total cached locations
// and cumulative hit/miss counters. In-flight and failed entries
// contribute nothing.
func (p *DetectorPool) ExpCacheStats() (size int, hits, misses uint64) {
	p.mu.Lock()
	dets := make([]*core.Detector, 0, len(p.entries))
	for _, e := range p.entries {
		if d, ok := e.detector(); ok {
			dets = append(dets, d)
		}
	}
	p.mu.Unlock()
	for _, d := range dets {
		s, h, m := d.ExpCacheStats()
		size += s
		hits += h
		misses += m
	}
	return size, hits, misses
}
