package sched

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// unitTask is a synthetic job body: it consumes its unit budget batch
// by batch and reports each turn to onBatch (called from the worker
// goroutine; tests with one worker may mutate shared state there).
type unitTask struct {
	remaining int
	onBatch   func(ran int)
}

func (t *unitTask) RunBatch(n, _ int, _ <-chan struct{}) (int, bool, error) {
	if n > t.remaining {
		n = t.remaining
	}
	t.remaining -= n
	if t.onBatch != nil {
		t.onBatch(n)
	}
	return n, t.remaining == 0, nil
}

// blockTask parks the worker until release is closed — the test's way
// of holding the scheduler still while it stages submissions.
type blockTask struct{ release <-chan struct{} }

func (t blockTask) RunBatch(int, int, <-chan struct{}) (int, bool, error) {
	<-t.release
	return 1, true, nil
}

func waitDone(t *testing.T, ch <-chan JobResult) JobResult {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("job did not complete")
		return JobResult{}
	}
}

func doneHook(ch chan JobResult) func(JobResult) {
	return func(res JobResult) { ch <- res }
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	s := New(Config{Workers: 1, BatchUnits: 10})
	done := make(chan JobResult, 1)
	j := s.Submit(35, &unitTask{remaining: 35}, doneHook(done))
	if !j.Status().Started {
		t.Error("idle scheduler should start the first submission at once")
	}
	res := waitDone(t, done)
	if js := j.Status(); res.Err != nil || js.UnitsDone != 35 {
		t.Errorf("result = %+v, status %+v, want 35 units, nil err", res, js)
	}
	st := s.Stats()
	if st.JobsDone != 1 || st.Units != 35 || st.Batches != 4 || st.ActiveJobs != 0 {
		t.Errorf("stats = %+v, want 1 done / 35 units / 4 batches / 0 active", st)
	}
	if st.Wait.Count != 1 || st.Run.Count != 1 {
		t.Errorf("wait/run histogram counts = %d/%d, want 1/1", st.Wait.Count, st.Run.Count)
	}
}

// TestNoGoroutinesOutliveTheirJobs: the scheduler keeps no standing
// goroutines, so once its jobs have run to completion the goroutine
// count returns to its baseline without any teardown call.
func TestNoGoroutinesOutliveTheirJobs(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{Workers: 2, BatchUnits: 10})
	done := make(chan JobResult, 3)
	for range 3 {
		s.Submit(35, &unitTask{remaining: 35}, doneHook(done))
	}
	for range 3 {
		waitDone(t, done)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every job finished, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoundRobinFairShare is the tentpole property: K queued equal-cost
// jobs on one worker each finish within ~K× their solo time, because
// the ring gives every job one batch per cycle. A FIFO scheduler would
// complete job 1 after m batches and job K only after K·m; round-robin
// completes all of them inside the final K turns. The gate task holds
// the single worker until all K jobs are queued, making the service
// order deterministic.
func TestRoundRobinFairShare(t *testing.T) {
	const (
		K     = 4
		units = 100
		batch = 10
		m     = units / batch // solo batches per job
	)
	s := New(Config{Workers: 1, BatchUnits: batch})

	release := make(chan struct{})
	gateDone := make(chan JobResult, 1)
	s.Submit(1, blockTask{release}, doneHook(gateDone))

	var mu sync.Mutex
	batches := 0
	completedAt := make(map[string]int, K)
	done := make(chan JobResult, K)
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		id := id
		task := &unitTask{remaining: units, onBatch: func(int) {
			mu.Lock()
			batches++
			mu.Unlock()
		}}
		s.Submit(units, task, func(res JobResult) {
			mu.Lock()
			completedAt[id] = batches
			mu.Unlock()
			done <- res
		})
	}
	close(release)
	waitDone(t, gateDone)
	for range ids {
		if res := waitDone(t, done); res.Err != nil {
			t.Fatalf("job result = %+v", res)
		}
	}
	if st := s.Stats(); st.Units != 1+K*units {
		t.Fatalf("units = %d, want %d", st.Units, 1+K*units)
	}

	// All K jobs must complete in the ring's final K turns: no job may
	// finish before every job has had m−1 turns (fairness), and the last
	// completes exactly at K·m batches (completeness).
	for _, id := range ids {
		c := completedAt[id]
		if c <= (K-1)*m {
			t.Errorf("job %s completed at batch %d — it convoyed ahead instead of sharing (fair window is (%d, %d])",
				id, c, (K-1)*m, K*m)
		}
		if c > K*m {
			t.Errorf("job %s completed at batch %d > %d total", id, c, K*m)
		}
	}
}

// TestPreclaimStopsAtWorkerCount: with cores to spare, the worker
// count caps the jobs that start at once. (On one core the training
// budget caps them at one, so the test pins two.)
func TestPreclaimStopsAtWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := New(Config{Workers: 2, BatchUnits: 10})
	release := make(chan struct{})
	done := make(chan JobResult, 3)
	var third *Job
	for i := 0; i < 3; i++ {
		third = s.Submit(1, blockTask{release}, doneHook(done))
		if want := i < 2; third.Status().Started != want {
			t.Errorf("submission %d started = %v, want %v", i, !want, want)
		}
	}
	if st := third.Status(); st.Started {
		t.Errorf("third job status = %+v, want queued", st)
	}
	close(release)
	for i := 0; i < 3; i++ {
		waitDone(t, done)
	}
}

func TestCancelQueuedJobCompletesImmediately(t *testing.T) {
	s := New(Config{Workers: 1, BatchUnits: 10})
	release := make(chan struct{})
	defer close(release)
	s.Submit(1, blockTask{release}, nil)
	done := make(chan JobResult, 1)
	j := s.Submit(100, &unitTask{remaining: 100}, doneHook(done))
	j.Cancel()
	res := waitDone(t, done)
	if !errors.Is(res.Err, ErrCanceled) || j.Status().UnitsDone != 0 {
		t.Errorf("result = %+v, want ErrCanceled with 0 units", res)
	}
	if st := s.Stats(); st.JobsCanceled != 1 {
		t.Errorf("JobsCanceled = %d, want 1", st.JobsCanceled)
	}
}

func TestCancelExecutingJobCompletesAfterBatch(t *testing.T) {
	s := New(Config{Workers: 1, BatchUnits: 10})
	inBatch := make(chan struct{})
	release := make(chan struct{})
	task := &funcTask{fn: func(int, <-chan struct{}) (int, bool, error) {
		close(inBatch)
		<-release
		return 10, false, nil
	}}
	done := make(chan JobResult, 1)
	j := s.Submit(100, task, doneHook(done))
	<-inBatch
	j.Cancel()
	close(release)
	res := waitDone(t, done)
	if !errors.Is(res.Err, ErrCanceled) || j.Status().UnitsDone != 10 {
		t.Errorf("result = %+v, want ErrCanceled after the in-flight batch's 10 units", res)
	}
}

// TestCanceledWinsOverBatchError: a task that watches its cancel
// channel aborts with an error of its own; the job still counts as
// canceled, not failed.
func TestCanceledWinsOverBatchError(t *testing.T) {
	s := New(Config{Workers: 1, BatchUnits: 10})
	inBatch := make(chan struct{})
	task := &funcTask{fn: func(_ int, cancel <-chan struct{}) (int, bool, error) {
		close(inBatch)
		<-cancel
		return 4, false, errors.New("aborted")
	}}
	done := make(chan JobResult, 1)
	j := s.Submit(100, task, doneHook(done))
	<-inBatch
	j.Cancel()
	if res := waitDone(t, done); !errors.Is(res.Err, ErrCanceled) {
		t.Errorf("result = %+v, want ErrCanceled", res)
	}
	if st := s.Stats(); st.JobsCanceled != 1 || st.JobsFailed != 0 {
		t.Errorf("canceled/failed = %d/%d, want 1/0", st.JobsCanceled, st.JobsFailed)
	}
}

// TestFinishedJobReleasesTaskAndCallback: a terminal handle must pin
// neither its task nor its callback — callers keep handles for as long
// as the resource they describe lives, and the task of a finished
// training holds its whole run.
func TestFinishedJobReleasesTaskAndCallback(t *testing.T) {
	s := New(Config{Workers: 1, BatchUnits: 10})
	release := make(chan struct{})
	defer close(release)
	s.Submit(1, blockTask{release}, nil)
	done := make(chan JobResult, 2)
	ran := s.Submit(5, &unitTask{remaining: 5}, doneHook(done))
	queued := s.Submit(5, &unitTask{remaining: 5}, doneHook(done))
	queued.Cancel()
	waitDone(t, done)
	release <- struct{}{}
	waitDone(t, done)
	for name, j := range map[string]*Job{"ran to completion": ran, "canceled in queue": queued} {
		s.mu.Lock()
		task, onDone := j.task, j.onDone
		s.mu.Unlock()
		if task != nil || onDone != nil {
			t.Errorf("job %s still holds task=%v onDone=%v", name, task != nil, onDone != nil)
		}
	}
}

// funcTask adapts a closure; the first call is the whole behavior
// (subsequent calls never happen in the tests that use it).
type funcTask struct {
	fn func(n int, cancel <-chan struct{}) (int, bool, error)
}

func (t *funcTask) RunBatch(n, _ int, cancel <-chan struct{}) (int, bool, error) {
	return t.fn(n, cancel)
}

func TestBatchErrorFailsJob(t *testing.T) {
	boom := errors.New("boom")
	s := New(Config{Workers: 1, BatchUnits: 10})
	done := make(chan JobResult, 1)
	task := &funcTask{fn: func(int, <-chan struct{}) (int, bool, error) { return 3, false, boom }}
	j := s.Submit(100, task, doneHook(done))
	res := waitDone(t, done)
	if !errors.Is(res.Err, boom) || j.Status().UnitsDone != 3 {
		t.Errorf("result = %+v, want boom after 3 units", res)
	}
	if st := s.Stats(); st.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", st.JobsFailed)
	}
}

func TestStatusProgressAndETA(t *testing.T) {
	s := New(Config{Workers: 1, BatchUnits: 10})
	mid := make(chan struct{})
	release := make(chan struct{})
	first := true
	task := &funcTask{fn: func(int, <-chan struct{}) (int, bool, error) {
		if first {
			first = false
			close(mid)
			<-release
			return 10, false, nil
		}
		return 10, true, nil
	}}
	done := make(chan JobResult, 1)
	j := s.Submit(20, task, doneHook(done))
	<-mid
	if st := j.Status(); !st.Started || st.UnitsDone != 0 || st.ETA != 0 {
		t.Errorf("mid-batch status = %+v, want started, no progress, no ETA sample yet", st)
	}
	close(release)
	waitDone(t, done)
	if st := j.Status(); st.UnitsDone != 20 || st.ETA != 0 || st.QueuePosition != 0 {
		t.Errorf("finished status = %+v, want 20 units and no ETA", st)
	}
}

// shareTask records the procs share of every batch it runs. Before its
// first batch returns it reports on entered and waits for gate, the
// test's window to stage submissions while the batch holds its share.
type shareTask struct {
	remaining int
	entered   chan<- struct{}
	gate      <-chan struct{}

	mu     sync.Mutex
	shares []int
}

func (t *shareTask) RunBatch(n, procs int, _ <-chan struct{}) (int, bool, error) {
	t.mu.Lock()
	t.shares = append(t.shares, procs)
	first := len(t.shares) == 1
	t.mu.Unlock()
	if first && t.entered != nil {
		t.entered <- struct{}{}
		<-t.gate
	}
	n = min(n, t.remaining)
	t.remaining -= n
	return n, t.remaining == 0, nil
}

func (t *shareTask) got() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.shares)
}

// TestBatchShareFollowsLiveJobs: each batch's fan-out is decided at
// dispatch from the live job count. A lone job's batch gets every core;
// once a second job arrives (during that batch) the job's next batch
// gets GOMAXPROCS/Workers, as does every batch dispatched with Workers
// or more live jobs.
func TestBatchShareFollowsLiveJobs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers = 2
	s := New(Config{Workers: workers, BatchUnits: 10})

	entered := make(chan struct{})
	gate := make(chan struct{})
	lone := &shareTask{remaining: 30, entered: entered, gate: gate}
	done := make(chan JobResult, 3)
	s.Submit(30, lone, doneHook(done))
	<-entered // the lone job's first batch holds its share

	// A blocker pins the second worker, so a third job shares the
	// remaining worker with the first: three live jobs on two workers.
	release := make(chan struct{})
	s.Submit(1, blockTask{release}, doneHook(done))
	third := &shareTask{remaining: 20}
	s.Submit(20, third, doneHook(done))
	close(gate)
	waitDone(t, done)
	waitDone(t, done)
	close(release)
	waitDone(t, done)

	if got, want := lone.got(), []int{4, 4 / workers, 4 / workers}; !slices.Equal(got, want) {
		t.Errorf("lone-then-contended job shares = %v, want %v", got, want)
	}
	if got, want := third.got(), []int{4 / workers, 4 / workers}; !slices.Equal(got, want) {
		t.Errorf("contended job shares = %v, want %v", got, want)
	}
}

// sleepTask models a batch of CPU-bound units that parallelize
// perfectly: a batch of n units at share procs takes n·perUnit/procs of
// wall time (slept, so the test needs no idle cores). After its second
// batch at full share has been dispatched it reports on lone.
type sleepTask struct {
	remaining int
	perUnit   time.Duration
	full      int
	lone      chan<- struct{}
	fullSeen  int
}

func (t *sleepTask) RunBatch(n, procs int, _ <-chan struct{}) (int, bool, error) {
	n = min(n, t.remaining)
	if procs == t.full {
		if t.fullSeen++; t.fullSeen == 2 && t.lone != nil {
			t.lone <- struct{}{}
		}
	}
	time.Sleep(time.Duration(n) * t.perUnit / time.Duration(procs))
	t.remaining -= n
	return n, t.remaining == 0, nil
}

// TestETAWithVaryingShares: a job that ran contended (a third of the
// machine per batch) and then trains alone on every core must be
// estimated from core time, not wall time per unit — the wall-time mean
// of the contended batches would overstate its lone remainder by the
// share ratio (3× here).
func TestETAWithVaryingShares(t *testing.T) {
	const procs, workers = 6, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const perUnit = 6 * time.Millisecond
	s := New(Config{Workers: workers, BatchUnits: 10})
	done := make(chan JobResult, workers)
	for range workers - 1 {
		s.Submit(40, &sleepTask{remaining: 40, perUnit: perUnit, full: procs}, doneHook(done))
	}
	lone := make(chan struct{}, 1)
	jobDone := make(chan JobResult, 1)
	j := s.Submit(100, &sleepTask{remaining: 100, perUnit: perUnit, full: procs, lone: lone}, doneHook(jobDone))
	<-lone
	eta := j.Status().ETA
	t0 := time.Now()
	waitDone(t, jobDone)
	actual := time.Since(t0)
	for range workers - 1 {
		waitDone(t, done)
	}
	if eta <= 0 || eta > 2*actual || actual > 2*eta {
		t.Errorf("lone-job ETA %v, actual remaining %v: want within 2x", eta, actual)
	}
}

// grant is one batch dispatch as a stepTask saw it.
type grant struct {
	job   string
	procs int
}

// stepTask runs one unit per batch and hands every batch to the test:
// it reports its grant on entered and returns when the test sends on
// step.
type stepTask struct {
	name      string
	remaining int
	entered   chan<- grant
	step      chan struct{}
}

func newStepTask(name string, units int, entered chan<- grant) *stepTask {
	return &stepTask{name: name, remaining: units, entered: entered, step: make(chan struct{})}
}

func (t *stepTask) RunBatch(_, procs int, _ <-chan struct{}) (int, bool, error) {
	t.entered <- grant{t.name, procs}
	<-t.step
	t.remaining--
	return 1, t.remaining == 0, nil
}

// nextGrant waits for the next batch dispatch.
func nextGrant(t *testing.T, entered <-chan grant) grant {
	t.Helper()
	select {
	case g := <-entered:
		return g
	case <-time.After(10 * time.Second):
		t.Fatal("no batch was dispatched")
		return grant{}
	}
}

// noGrant fails if a batch is dispatched within a short wait.
func noGrant(t *testing.T, entered <-chan grant, why string) {
	t.Helper()
	select {
	case g := <-entered:
		t.Errorf("batch %+v dispatched; %s", g, why)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLoneJobBudget: a job training alone gets every core while no
// work is served — status reads and registrations serve none — and one
// core fewer, never below one, while checks are scored. The core it
// gives up is all that training loses to checks. The test runs at the
// ambient GOMAXPROCS; CI runs the package at 1 and 3 as well.
func TestLoneJobBudget(t *testing.T) {
	g := runtime.GOMAXPROCS(0)
	var served atomic.Uint64
	served.Store(7) // work served before the scheduler was built is history
	s := New(Config{Workers: 2, BatchUnits: 1, Served: served.Load})
	entered := make(chan grant, 1)
	done := make(chan JobResult, 1)

	idle := newStepTask("idle", 2, entered)
	j := s.Submit(2, idle, doneHook(done))
	for range 2 {
		if got := nextGrant(t, entered); got.procs != g {
			t.Errorf("idle daemon: batch granted %d procs, want GOMAXPROCS = %d", got.procs, g)
		}
		j.Status() // polls serve no work
		if c := s.Stats().TrainingCores; c != g {
			t.Errorf("idle daemon: training budget %d, want %d", c, g)
		}
		idle.step <- struct{}{}
	}
	waitDone(t, done)

	loaded := newStepTask("loaded", 2, entered)
	served.Add(64) // a batch of checks scored while nothing trained
	s.Submit(2, loaded, doneHook(done))
	want := max(1, g-1)
	for range 2 {
		if got := nextGrant(t, entered); got.procs != want {
			t.Errorf("serving daemon: batch granted %d procs, want max(1, GOMAXPROCS-1) = %d", got.procs, want)
		}
		if c := s.Stats().TrainingCores; c != want {
			t.Errorf("serving daemon: training budget %d, want %d", c, want)
		}
		served.Add(1) // checks keep arriving during the batch
		loaded.step <- struct{}{}
	}
	waitDone(t, done)
}

// TestBudgetFloorIsOneCore: with a single P, serving checks cannot take
// training's last core.
func TestBudgetFloorIsOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var served atomic.Uint64
	s := New(Config{Workers: 2, BatchUnits: 1, Served: served.Load})
	entered := make(chan grant, 1)
	done := make(chan JobResult, 1)
	task := newStepTask("a", 3, entered)
	served.Add(1)
	s.Submit(3, task, doneHook(done))
	for range 3 {
		if got := nextGrant(t, entered); got.procs != 1 {
			t.Errorf("GOMAXPROCS=1 under load: batch granted %d procs, want 1", got.procs)
		}
		served.Add(1)
		task.step <- struct{}{}
	}
	waitDone(t, done)
	if c := s.Stats().TrainingCores; c != 1 {
		t.Errorf("training budget %d, want 1", c)
	}
}

// TestServedWorkHoldsBackAWorker walks the budget on two cores through
// one episode of serving. While checks are scored, one batch runs at a
// time on one core, and a job the budget holds back reports as not
// started. A batch that runs start to finish with no served work
// restores the full budget, and the held-back worker wakes: both jobs
// train at once, one core each.
func TestServedWorkHoldsBackAWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var served atomic.Uint64
	s := New(Config{Workers: 2, BatchUnits: 1, Served: served.Load})
	entered := make(chan grant, 2)
	done := make(chan JobResult, 2)
	a := newStepTask("a", 2, entered)
	b := newStepTask("b", 2, entered)

	served.Add(1) // a check scored before the first dispatch
	s.Submit(2, a, doneHook(done))
	if got := nextGrant(t, entered); got != (grant{"a", 1}) {
		t.Fatalf("first dispatch %+v, want a on 1 proc", got)
	}
	jb := s.Submit(2, b, doneHook(done))
	if jb.Status().Started {
		t.Error("a job the budget holds back reports as started")
	}
	noGrant(t, entered, "the budget of 1 is spent")
	if c := s.Stats().TrainingCores; c != 1 {
		t.Errorf("training budget %d while serving, want 1", c)
	}

	served.Add(1) // checks during a's batch
	a.step <- struct{}{}
	if got := nextGrant(t, entered); got != (grant{"b", 1}) {
		t.Fatalf("dispatch after a's batch %+v, want b on 1 proc", got)
	}
	noGrant(t, entered, "a must wait while checks were served during its batch")

	// b's batch runs with no served work: serving has stopped.
	b.step <- struct{}{}
	got := []grant{nextGrant(t, entered), nextGrant(t, entered)}
	slices.SortFunc(got, func(x, y grant) int { return strings.Compare(x.job, y.job) })
	if want := []grant{{"a", 1}, {"b", 1}}; !slices.Equal(got, want) {
		t.Errorf("dispatches after a quiet batch %+v, want %+v", got, want)
	}
	if c := s.Stats().TrainingCores; c != 2 {
		t.Errorf("training budget %d after serving stopped, want 2", c)
	}
	a.step <- struct{}{}
	b.step <- struct{}{}
	waitDone(t, done)
	waitDone(t, done)
}

// TestServedWorkCapsConcurrentGrants: with checks scored during every
// batch, the batches training at once hold at most GOMAXPROCS−1 procs
// between them. The first batch is dispatched alone and jobs submitted
// during it overlap it (the one-batch overlap any arrival during a lone
// batch causes), so the sum is checked from its end on.
func TestServedWorkCapsConcurrentGrants(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var served atomic.Uint64
	s := New(Config{Workers: procs, BatchUnits: 5, Served: served.Load})

	var mu sync.Mutex
	inFlight, batches, peak, maxProcs, measuring := 0, 0, 0, 0, false
	run := func(_, p int) {
		served.Add(1)
		mu.Lock()
		first := batches == 0
		batches++
		inFlight += p
		maxProcs = max(maxProcs, p)
		if measuring {
			peak = max(peak, inFlight)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight -= p
		measuring = measuring || first
		mu.Unlock()
	}
	const jobs, units = procs + 1, 40
	done := make(chan JobResult, jobs)
	served.Add(1)
	for range jobs {
		s.Submit(units, &procsTask{remaining: units, run: run}, doneHook(done))
	}
	for range jobs {
		waitDone(t, done)
	}
	mu.Lock()
	defer mu.Unlock()
	if maxProcs > procs-1 || peak > procs-1 {
		t.Errorf("under served work: largest grant %d, peak concurrent procs %d over %d batches; want both <= %d",
			maxProcs, peak, batches, procs-1)
	}
}

// procsTask runs its units in batches, handing each batch's size and
// grant to run.
type procsTask struct {
	remaining int
	run       func(n, procs int)
}

func (t *procsTask) RunBatch(n, procs int, _ <-chan struct{}) (int, bool, error) {
	n = min(n, t.remaining)
	t.run(n, procs)
	t.remaining -= n
	return n, t.remaining == 0, nil
}

// TestOddBudgetLeavesNoCoreIdle: on three idle cores two jobs share the
// budget 2+1 — the remainder core goes to one batch — where a
// fractional 1.5 share would round both down and idle a core.
func TestOddBudgetLeavesNoCoreIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s := New(Config{Workers: 2, BatchUnits: 1})
	entered := make(chan grant, 2)
	done := make(chan JobResult, 2)
	a := newStepTask("a", 2, entered)
	b := newStepTask("b", 1, entered)
	s.Submit(2, a, doneHook(done))
	if got := nextGrant(t, entered); got != (grant{"a", 3}) {
		t.Fatalf("lone dispatch %+v, want a on all 3 procs", got)
	}
	s.Submit(1, b, doneHook(done))
	gb := nextGrant(t, entered)
	a.step <- struct{}{}
	ga := nextGrant(t, entered)
	if gb.procs+ga.procs != 3 || min(gb.procs, ga.procs) != 1 {
		t.Errorf("two jobs on 3 cores granted %+v and %+v, want 2+1", gb, ga)
	}
	a.step <- struct{}{}
	b.step <- struct{}{}
	waitDone(t, done)
	waitDone(t, done)
}

// TestETAFollowsBudget: a job's ETA spreads its remaining core time
// over the training budget, so checks served mid-run lengthen it by the
// core they take — GOMAXPROCS/(GOMAXPROCS−1), 2× on two cores.
func TestETAFollowsBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var served atomic.Uint64
	s := New(Config{Workers: 1, BatchUnits: 1, Served: served.Load})
	entered := make(chan grant, 1)
	done := make(chan JobResult, 1)
	task := newStepTask("a", 10, entered)
	j := s.Submit(10, task, doneHook(done))
	nextGrant(t, entered)
	time.Sleep(time.Millisecond) // a measurable first batch
	task.step <- struct{}{}
	nextGrant(t, entered) // the second batch holds still
	idle := j.Status().ETA
	served.Add(1)
	loaded := j.Status().ETA
	if idle <= 0 || loaded-2*idle > 1 || 2*idle-loaded > 1 {
		t.Errorf("ETA idle %v, with checks served %v: want exactly 2x", idle, loaded)
	}
	for i := range 9 {
		task.step <- struct{}{}
		if i < 8 {
			nextGrant(t, entered)
		}
	}
	waitDone(t, done)
}

// TestCoreTimeChargesGrantedProcs: the core time behind the ETA charges
// each batch the procs it was granted — a lone job under load on three
// cores is charged two, not the machine's three.
func TestCoreTimeChargesGrantedProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var served atomic.Uint64
	s := New(Config{Workers: 1, BatchUnits: 2, Served: served.Load})
	done := make(chan JobResult, 1)
	served.Add(1)
	var grants []int
	j := s.Submit(6, &procsTask{remaining: 6, run: func(_, p int) {
		served.Add(1)
		grants = append(grants, p)
		time.Sleep(time.Millisecond)
	}}, doneHook(done))
	waitDone(t, done)
	s.mu.Lock()
	charged, wall := s.coreNanosTotal, j.runNanos
	s.mu.Unlock()
	if !slices.Equal(grants, []int{2, 2, 2}) || charged != 2*float64(wall) {
		t.Errorf("grants %v, core time %v ns over %v ns of batches: want 2 procs each, charged 2x", grants, charged, wall)
	}
}
