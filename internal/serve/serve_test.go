package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
)

// tinySpec is a deployment small enough that real training takes
// milliseconds: a 300 m field, 3x3 groups of 40 nodes.
func tinySpec() DetectorSpec {
	cfg := deploy.PaperConfig()
	cfg.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(300, 300))
	cfg.GroupsX, cfg.GroupsY = 3, 3
	cfg.GroupSize = 40
	return DetectorSpec{
		Deployment: cfg,
		Metric:     "diff",
		Train:      TrainSpec{Trials: 80, Percentile: 99, Seed: 5, KeepInField: true},
	}
}

// newDetectorPoolWithTrainer returns a pool that trains every flight
// with one call to trainer (given the spec, the scheduler's core share
// for the batch and the flight's cancel channel), run as a single
// scheduler batch: concurrency is capped at the scheduler's batch cap
// and runs never interleave.
func newDetectorPoolWithTrainer(trainer func(DetectorSpec, int, <-chan struct{}) (*core.Detector, []float64, error)) *DetectorPool {
	p := NewDetectorPool(0)
	p.newTask = func(e *poolEntry) (poolTask, int) {
		return &monoTask{train: func(procs int, cancel <-chan struct{}) (*core.Detector, []float64, error) {
			return trainer(e.spec, procs, cancel)
		}}, 1
	}
	return p
}

// monoTask is a whole training run as one scheduler batch.
type monoTask struct {
	train  func(procs int, cancel <-chan struct{}) (*core.Detector, []float64, error)
	det    *core.Detector
	scores []float64
}

func (t *monoTask) RunBatch(_, procs int, cancel <-chan struct{}) (int, bool, error) {
	det, scores, err := t.train(procs, cancel)
	if err != nil {
		return 0, false, err
	}
	t.det, t.scores = det, scores
	return 1, true, nil
}

func (t *monoTask) result() (*core.Detector, []float64) { return t.det, t.scores }

// trainDetector trains spec in one call, the way a test trainer seam
// (newDetectorPoolWithTrainer) expects: it builds the deployment model
// and runs threshold training, returning the benign score sample
// alongside the detector so the pool can retain it for /rethreshold.
func trainDetector(spec DetectorSpec, workers int, cancel <-chan struct{}) (*core.Detector, []float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	metric := core.MetricByName(spec.Metric)
	if metric == nil {
		return nil, nil, fmt.Errorf("%w: unknown metric %q", ErrInvalidSpec, spec.Metric)
	}
	cfg := spec.Train.TrainConfig()
	cfg.Workers = workers
	cfg.Cancel = cancel
	return core.Train(model, metric, cfg)
}

// scrapePool renders the pool's metrics registry, as /metrics would.
func scrapePool(t *testing.T, p *DetectorPool) string {
	t.Helper()
	var b strings.Builder
	if _, err := p.reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestDetectorSpecKey(t *testing.T) {
	a := tinySpec()
	if a.Key() != tinySpec().Key() {
		t.Fatal("key not deterministic")
	}
	b := tinySpec()
	b.Metric = "add-all"
	c := tinySpec()
	c.Train.Seed++
	d := tinySpec()
	d.Deployment.GroupSize++
	e := tinySpec()
	e.Train.KeepInField = false
	keys := map[string]string{a.Key(): "base"}
	for name, s := range map[string]DetectorSpec{"metric": b, "seed": c, "deploy": d, "keep": e} {
		k := s.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		keys[k] = name
	}
}

func TestDetectorPoolHitMiss(t *testing.T) {
	var trained atomic.Int32
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		trained.Add(1)
		return trainDetector(spec, workers, nil)
	})
	specA := tinySpec()
	specB := tinySpec()
	specB.Metric = "add-all"

	d1, err := pool.await(specA)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := pool.await(specA)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("same spec returned distinct detectors")
	}
	if _, err := pool.await(specB); err != nil {
		t.Fatal(err)
	}
	if got := trained.Load(); got != 2 {
		t.Errorf("trainer ran %d times, want 2", got)
	}
	entries, hits, misses, failures := pool.Stats()
	if entries != 2 || hits != 1 || misses != 2 || failures != 0 {
		t.Errorf("stats = (%d entries, %d hits, %d misses, %d failures), want (2, 1, 2, 0)",
			entries, hits, misses, failures)
	}
}

func TestDetectorPoolSingleFlightUnderRace(t *testing.T) {
	var trained atomic.Int32
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		trained.Add(1)
		return trainDetector(spec, workers, nil)
	})
	spec := tinySpec()
	const goroutines = 32
	dets := make([]*core.Detector, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := pool.await(spec)
			if err != nil {
				t.Error(err)
				return
			}
			dets[i] = d
		}(i)
	}
	wg.Wait()
	if got := trained.Load(); got != 1 {
		t.Errorf("trainer ran %d times under %d concurrent gets, want 1", got, goroutines)
	}
	for i := 1; i < goroutines; i++ {
		if dets[i] != dets[0] {
			t.Fatalf("goroutine %d got a different detector", i)
		}
	}
}

func TestFailedTrainingStaysInspectableAndRetries(t *testing.T) {
	var trained atomic.Int32
	fail := atomic.Bool{}
	fail.Store(true)
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		trained.Add(1)
		if fail.Load() {
			return nil, nil, fmt.Errorf("boom")
		}
		return trainDetector(spec, workers, nil)
	})
	spec := tinySpec()
	if _, err := pool.await(spec); err == nil {
		t.Fatal("want error")
	}
	// The failed resource stays resident in state failed — inspectable by
	// id — but never counts as cache traffic.
	st, ok := pool.Lookup(spec.ID())
	if !ok || st.State != StateFailed || st.Err == nil {
		t.Errorf("failed resource status = (%+v, %v), want failed with error", st, ok)
	}
	_, hits, misses, failures := pool.Stats()
	if hits != 0 || misses != 0 || failures != 1 {
		t.Errorf("stats after failure = (%d hits, %d misses, %d failures), want (0, 0, 1)",
			hits, misses, failures)
	}
	// A retry re-arms the same resource with a fresh flight — and can
	// succeed once the cause clears.
	fail.Store(false)
	if _, err := pool.await(spec); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if got := trained.Load(); got != 2 {
		t.Errorf("trainer ran %d times, want 2 (fail + retry)", got)
	}
	if st, _ := pool.Lookup(spec.ID()); st.State != StateReady {
		t.Errorf("retried resource is %s, want ready", st.State)
	}
}

// TestFailedTrainingDoesNotBrickPool is the PR 2 serving-pool bugfix: a
// burst of distinct bad specs used to occupy limit slots forever and
// turn every later lookup into ErrPoolFull.
func TestFailedTrainingDoesNotBrickPool(t *testing.T) {
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		if spec.Train.Seed >= 100 {
			return nil, nil, fmt.Errorf("bad spec %d", spec.Train.Seed)
		}
		return trainDetector(spec, workers, nil)
	})
	pool.limit = 2
	bad := tinySpec()
	for i := 0; i < 10; i++ {
		bad.Train.Seed = 100 + uint64(i)
		if _, err := pool.await(bad); err == nil {
			t.Fatal("bad spec should fail")
		}
	}
	good := tinySpec()
	if _, err := pool.await(good); err != nil {
		t.Fatalf("good spec after bad burst: %v", err)
	}
	if _, _, _, failures := pool.Stats(); failures != 10 {
		t.Errorf("failures = %d, want 10", failures)
	}
}

// TestTrainingConcurrencyCap proves parallel cold starts share the
// machine: at most cap trainings run at once, and each batch's core
// share is GOMAXPROCS divided by the jobs that could run at once when it
// was dispatched — every core for the first, lone registration, the
// cap's split for every batch dispatched while cap or more jobs were
// live. Trainings are released one at a time, so the live count at each
// dispatch is known: all eight submissions land while the first two
// trainings hold both workers, and each later dispatch follows one
// completion.
func TestTrainingConcurrencyCap(t *testing.T) {
	const procs, capacity, lookups = 4, 2, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var active, peak atomic.Int32
	entered := make(chan int, lookups) // each training's core share
	release := make(chan struct{})
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, share int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		entered <- share
		<-release
		active.Add(-1)
		return nil, nil, fmt.Errorf("synthetic")
	})
	pool.SetTrainConcurrency(capacity)
	var wg sync.WaitGroup
	await := func(i int) {
		spec := tinySpec()
		spec.Train.Seed = 1000 + uint64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.await(spec) //nolint:errcheck // synthetic failure expected
		}()
	}
	wantShare := func(live int) int { return max(1, procs/min(capacity, live)) }

	// The first registration trains alone.
	await(0)
	shares := []int{<-entered}
	wants := []int{wantShare(1)}
	for i := 1; i < lookups; i++ {
		await(i)
	}
	// The second is dispatched with at least two jobs live.
	shares = append(shares, <-entered)
	wants = append(wants, wantShare(2))
	for pool.SchedStats().ActiveJobs < lookups {
		time.Sleep(time.Millisecond)
	}
	// Let the trainings queue up against the cap, then drain one at a
	// time: after the k-th completion the next dispatch sees lookups-k
	// live jobs.
	time.Sleep(20 * time.Millisecond)
	for k := 1; k <= lookups-capacity; k++ {
		release <- struct{}{}
		shares = append(shares, <-entered)
		wants = append(wants, wantShare(lookups-k))
	}
	close(release)
	wg.Wait()
	if got := peak.Load(); got > capacity {
		t.Errorf("peak concurrent trainings = %d, cap is %d", got, capacity)
	}
	if !slices.Equal(shares, wants) {
		t.Errorf("per-batch core shares = %v, want %v", shares, wants)
	}
}

// shareTask wraps a production trial task, recording the core share of
// each batch. Its first batch reports on entered and waits for gate
// before it runs, holding the share it was dispatched with.
type shareTask struct {
	poolTask
	entered chan<- struct{}
	gate    <-chan struct{}
	shares  []int // read after the flight finishes
}

func (t *shareTask) RunBatch(n, procs int, cancel <-chan struct{}) (int, bool, error) {
	t.shares = append(t.shares, procs)
	if len(t.shares) == 1 {
		t.entered <- struct{}{}
		<-t.gate
	}
	return t.poolTask.RunBatch(n, procs, cancel)
}

// TestTrainingShareFollowsLiveJobs drives real trainings through the
// pool's scheduler: a registration training alone gets every core for
// its batch, its later batches get the split while a second job is
// live, and the second job's batches grow to every core once it trains
// alone. Thresholds stay bit-identical to a one-worker core.Train.
func TestTrainingShareFollowsLiveJobs(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p := NewDetectorPool(0)
	p.SetTrainConcurrency(2)
	p.SetSchedBatchTrials(20) // 80-trial specs: four batches each
	specs := []DetectorSpec{tinySpec(), tinySpec()}
	specs[1].Train.Seed++
	entered := make(chan struct{})
	gates := map[string]chan struct{}{specs[0].ID(): make(chan struct{}), specs[1].ID(): make(chan struct{})}
	tasks := map[string]*shareTask{}
	p.newTask = func(e *poolEntry) (poolTask, int) {
		inner, units := p.newTrialTask(e)
		task := &shareTask{poolTask: inner, entered: entered, gate: gates[e.id]}
		tasks[e.id] = task // Register runs newTask on the test goroutine
		return task, units
	}
	for _, spec := range specs {
		if _, _, err := p.Register(spec); err != nil {
			t.Fatal(err)
		}
		<-entered
	}
	// The first job finishes while the second holds its first batch,
	// then the second trains alone.
	for _, spec := range specs {
		close(gates[spec.ID()])
		det, err := p.await(spec)
		if err != nil {
			t.Fatal(err)
		}
		model, err := deploy.New(spec.Deployment)
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Train.TrainConfig()
		cfg.Workers = 1
		want, _, err := core.Train(model, core.MetricByName(spec.Metric), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if det.Threshold() != want.Threshold() {
			t.Errorf("%s: threshold %v, one-worker Train %v", spec.ID(), det.Threshold(), want.Threshold())
		}
	}
	for i, want := range [][]int{{procs, procs / 2, procs / 2, procs / 2}, {procs / 2, procs, procs, procs}} {
		if got := tasks[specs[i].ID()].shares; !slices.Equal(got, want) {
			t.Errorf("job %d batch shares = %v, want %v", i, got, want)
		}
	}
}

// stepTask wraps a production trial task and hands every batch to the
// test: it reports the batch's procs on entered and runs the batch once
// the test sends on step.
type stepTask struct {
	poolTask
	entered chan<- int
	step    <-chan struct{}
}

func (t *stepTask) RunBatch(n, procs int, cancel <-chan struct{}) (int, bool, error) {
	t.entered <- procs
	<-t.step
	return t.poolTask.RunBatch(n, procs, cancel)
}

// TestTrainingBudgetFollowsServedChecks drives the training budget
// through the HTTP surface. A warmup that clients watch only through
// status polls and 202 answers serves no work, so every batch trains on
// all cores. Once the default detector is ready, a check scored during a
// registration's batch costs training's next batch one core; a batch
// with no check after it gives the core back. Fan-out does not touch
// results: the threshold matches a one-worker core.Train.
func TestTrainingBudgetFollowsServedChecks(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	pool := NewDetectorPool(0)
	pool.SetSchedBatchTrials(20) // 80-trial specs: four batches each
	entered := make(chan int)
	step := make(chan struct{})
	pool.newTask = func(e *poolEntry) (poolTask, int) {
		inner, units := pool.newTrialTask(e)
		return &stepTask{poolTask: inner, entered: entered, step: step}, units
	}
	srv, err := NewServer(ServerConfig{Default: tinySpec()}, pool)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	expect := func(resp *http.Response, body []byte, code int) {
		t.Helper()
		if resp.StatusCode != code {
			t.Fatalf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, code, body)
		}
	}
	url := ts.URL + "/v2/detectors/" + tinySpec().ID()
	item := BatchItemJSON{Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}

	warm := make(chan error, 1)
	go func() { warm <- srv.Warmup() }()
	for i := range 4 {
		if got := <-entered; got != procs {
			t.Errorf("warmup batch %d granted %d procs, want all %d", i, got, procs)
		}
		resp, body := doJSON(t, "GET", url, nil, "")
		expect(resp, body, http.StatusOK)
		resp, body = doJSON(t, "POST", url+"/check", item, "")
		expect(resp, body, http.StatusAccepted)
		step <- struct{}{}
	}
	if err := <-warm; err != nil {
		t.Fatal(err)
	}

	spec := tinySpec()
	spec.Train.Seed++
	if _, _, err := pool.Register(spec); err != nil {
		t.Fatal(err)
	}
	var grants []int
	for i := range 4 {
		grants = append(grants, <-entered)
		if i == 0 {
			resp, body := doJSON(t, "POST", url+"/check", item, "")
			expect(resp, body, http.StatusOK)
		}
		step <- struct{}{}
	}
	if want := []int{procs, procs - 1, procs, procs}; !slices.Equal(grants, want) {
		t.Errorf("registration batch grants %v around one served check, want %v", grants, want)
	}
	det, err := pool.await(spec)
	if err != nil {
		t.Fatal(err)
	}
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Train.TrainConfig()
	cfg.Workers = 1
	want, _, err := core.Train(model, core.MetricByName(spec.Metric), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.Threshold() != want.Threshold() {
		t.Errorf("threshold %v, one-worker Train %v", det.Threshold(), want.Threshold())
	}
}

// TestDroppedPoolIsCollected: a pool that trained and is then dropped
// is garbage; nothing the scheduler holds may reach back to the pool
// and its detectors.
func TestDroppedPoolIsCollected(t *testing.T) {
	var wp weak.Pointer[DetectorPool]
	func() {
		p := NewDetectorPool(0)
		if _, err := p.await(tinySpec()); err != nil {
			t.Fatal(err)
		}
		wp = weak.Make(p)
	}()
	for deadline := time.Now().Add(5 * time.Second); wp.Value() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("a dropped pool stayed reachable")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestDroppedPoolsLeaveNoGoroutines: pools that each trained a
// detector and are then dropped leave no goroutine behind, with no
// teardown call — a training batch runs on a goroutine that exits with
// it, so a pool needs no Close.
func TestDroppedPoolsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := range 5 {
		spec := tinySpec()
		spec.Train.Seed = uint64(100 + i)
		if _, err := NewDetectorPool(0).await(spec); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after five dropped pools trained, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// newTestServer stands up a warmed server over the tiny spec.
func newTestServer(t *testing.T) (*httptest.Server, *Server, *core.Detector) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Default: tinySpec(), MaxBatch: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	det, err := srv.Pool().await(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, det
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// sampleItems draws n benign observation/location pairs from the
// detector's own model.
func sampleItems(det *core.Detector, n int, seed uint64) []BatchItemJSON {
	model := det.Model()
	r := rng.New(seed)
	items := make([]BatchItemJSON, n)
	for i := range items {
		group, la := model.SampleLocation(r)
		for !model.Field().Contains(la) {
			group, la = model.SampleLocation(r)
		}
		items[i] = BatchItemJSON{
			Observation: model.SampleObservation(la, group, r),
			Location:    PointJSON{X: la.X, Y: la.Y},
		}
	}
	return items
}

// defaultURL is the v2 resource URL of newTestServer's default detector.
func defaultURL(ts *httptest.Server) string {
	return ts.URL + "/v2/detectors/" + tinySpec().ID()
}

func TestCheckRoundTrip(t *testing.T) {
	ts, _, det := newTestServer(t)
	it := sampleItems(det, 1, 7)[0]
	resp, body := postJSON(t, defaultURL(ts)+"/check", it)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got CheckResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := det.Check(it.Observation, it.Location.Point())
	if got.Score != want.Score || got.Threshold != want.Threshold || got.Alarm != want.Alarm {
		t.Errorf("served verdict %+v != direct %+v", got, want)
	}
}

func TestCheckBatchRoundTripMatchesSequential(t *testing.T) {
	ts, _, det := newTestServer(t)
	items := sampleItems(det, 40, 11)
	resp, body := postJSON(t, defaultURL(ts)+"/check/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got BatchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(items) {
		t.Fatalf("%d results for %d items", len(got.Results), len(items))
	}
	for i, it := range items {
		want := verdictJSON(det.Check(it.Observation, it.Location.Point()))
		if got.Results[i] != want {
			t.Errorf("item %d: batch %+v != sequential %+v", i, got.Results[i], want)
		}
	}
}

func TestCheckRejectsMalformedRequests(t *testing.T) {
	ts, _, det := newTestServer(t)
	it := sampleItems(det, 1, 13)[0]

	cases := []struct {
		name   string
		url    string
		body   any
		status int
	}{
		{"wrong group count", "/check",
			BatchItemJSON{Observation: []int{1, 2}, Location: it.Location},
			http.StatusBadRequest},
		{"negative count", "/check",
			BatchItemJSON{Observation: append([]int{-1}, it.Observation[1:]...), Location: it.Location},
			http.StatusBadRequest},
		{"empty batch", "/check/batch", BatchRequest{}, http.StatusBadRequest},
		{"oversized batch", "/check/batch",
			BatchRequest{Items: make([]BatchItemJSON, 129)},
			http.StatusBadRequest},
		{"detector in batch body", "/check/batch", map[string]any{
			"detector": tinySpec(), "items": []BatchItemJSON{it},
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, defaultURL(ts)+c.url, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil || e.Error == nil || e.Error.Message == "" {
			t.Errorf("%s: error body %q not a structured JSON error", c.name, body)
		} else if e.Error.Code != CodeInvalidArgument {
			t.Errorf("%s: error code %q, want %q", c.name, e.Error.Code, CodeInvalidArgument)
		}
	}

	// Unknown fields are rejected too (catches client schema drift).
	resp, _ := postJSON(t, defaultURL(ts)+"/check", map[string]any{"observe": []int{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// So is a spec the validator refuses, at registration.
	bad := tinySpec()
	bad.Metric = "nope"
	resp, body := postJSON(t, ts.URL+"/v2/detectors", RegisterRequest{Spec: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad metric: status %d, want 400 (%s)", resp.StatusCode, body)
	} else if e := decodeAPIError(t, body); e.Code != CodeInvalidArgument {
		t.Errorf("bad metric: code %q, want %q", e.Code, CodeInvalidArgument)
	}
}

// TestNaNPercentileRefused pins that a NaN percentile is refused where
// one enters: as the default spec (NewServer) and on Rethreshold. A
// range check written as p <= 0 || p >= 100 passes NaN, and the
// percentile cut after training then panics.
func TestNaNPercentileRefused(t *testing.T) {
	bad := tinySpec()
	bad.Train.Percentile = math.NaN()
	if _, err := NewServer(ServerConfig{Default: bad}, NewDetectorPool(2)); err == nil {
		t.Error("NewServer accepted a NaN default percentile")
	}

	pool := NewDetectorPool(2)
	spec := tinySpec()
	if _, err := pool.await(spec); err != nil {
		t.Fatal(err)
	}
	_, err := pool.Rethreshold(spec.ID(), math.NaN())
	var api *APIError
	if !errors.As(err, &api) || api.Code != CodeInvalidArgument {
		t.Errorf("Rethreshold(NaN) = %v, want %s", err, CodeInvalidArgument)
	}
}

// TestPerRequestDetectorSpecIsCached: registering a spec again names
// the same resource and trains nothing new.
func TestPerRequestDetectorSpecIsCached(t *testing.T) {
	ts, srv, det := newTestServer(t)
	it := sampleItems(det, 1, 17)[0]
	spec := tinySpec()
	spec.Metric = "add-all"
	for i, want := range []int{http.StatusCreated, http.StatusOK, http.StatusOK} {
		resp, body := postJSON(t, ts.URL+"/v2/detectors", RegisterRequest{Spec: spec})
		if resp.StatusCode != want {
			t.Fatalf("register %d: status %d, want %d: %s", i, resp.StatusCode, want, body)
		}
		if id := decodeDetector(t, body).ID; id != spec.ID() {
			t.Fatalf("register %d: id %q, want %q", i, id, spec.ID())
		}
	}
	entries, hits, misses, _ := srv.Pool().Stats()
	if entries != 2 {
		t.Errorf("pool entries = %d, want 2 (default + add-all)", entries)
	}
	// Warmup + newTestServer's await + 3 registrations = 5 lookups over 2
	// distinct specs: 2 misses (first sight of each), 3 hits.
	if misses != 2 || hits != 3 {
		t.Errorf("hits/misses = %d/%d, want 3/2", hits, misses)
	}
	if _, err := srv.Pool().await(spec); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v2/detectors/"+spec.ID()+"/check", it)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, body)
	}
	if started := srv.Pool().jobsStarted.Load(); started != 2 {
		t.Errorf("training flights = %d, want 2 (one per distinct spec)", started)
	}
}

func TestResourceCapsOnRequestSpecs(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Default:            tinySpec(),
		MaxTrainTrials:     500,
		MaxGroups:          16,
		MaxGroupSize:       100,
		MaxCachedDetectors: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	det, _ := srv.Pool().await(tinySpec())
	it := sampleItems(det, 1, 23)[0]

	register := func(spec DetectorSpec) int {
		resp, _ := postJSON(t, ts.URL+"/v2/detectors", RegisterRequest{Spec: spec})
		return resp.StatusCode
	}
	check := func(spec DetectorSpec) int {
		resp, _ := postJSON(t, ts.URL+"/v2/detectors/"+spec.ID()+"/check", it)
		return resp.StatusCode
	}

	huge := tinySpec()
	huge.Train.Trials = 501
	if got := register(huge); got != http.StatusBadRequest {
		t.Errorf("over-trials spec: status %d, want 400", got)
	}
	wide := tinySpec()
	wide.Deployment.GroupsX, wide.Deployment.GroupsY = 5, 4
	if got := register(wide); got != http.StatusBadRequest {
		t.Errorf("over-groups spec: status %d, want 400", got)
	}
	dense := tinySpec()
	dense.Deployment.GroupSize = 101
	if got := register(dense); got != http.StatusBadRequest {
		t.Errorf("over-group-size spec: status %d, want 400", got)
	}
	// The default spec occupies 1 of 2 pool slots; a second distinct
	// spec fits, a third is rejected with 429 instead of training.
	second := tinySpec()
	second.Train.Seed++
	if got := register(second); got != http.StatusCreated {
		t.Errorf("second spec: status %d, want 201", got)
	}
	if _, err := srv.Pool().await(second); err != nil {
		t.Fatal(err)
	}
	third := tinySpec()
	third.Train.Seed += 2
	if got := register(third); got != http.StatusTooManyRequests {
		t.Errorf("pool-full spec: status %d, want 429", got)
	}
	// The default and already-resident specs keep working at capacity.
	if got := check(tinySpec()); got != http.StatusOK {
		t.Errorf("default spec at capacity: status %d, want 200", got)
	}
	if got := register(second); got != http.StatusOK {
		t.Errorf("resident spec re-registered at capacity: status %d, want 200", got)
	}
	if got := check(second); got != http.StatusOK {
		t.Errorf("resident spec at capacity: status %d, want 200", got)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, err := NewServer(ServerConfig{Default: tinySpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("pre-warmup healthz = %d, want 503", resp.StatusCode)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-warmup healthz = %d, want 200", resp.StatusCode)
	}

	// Drive one scored request, then scrape.
	det, _ := srv.Pool().await(tinySpec())
	it := sampleItems(det, 1, 19)[0]
	r2, body := postJSON(t, defaultURL(ts)+"/check", it)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("check failed: %s", body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	text := out.String()
	for _, want := range []string{
		`ladd_requests_total{endpoint="v2_check",code="2xx"} 1`,
		"ladd_observations_scored_total 1",
		"ladd_detector_cache_misses_total 1",
		"ladd_detector_cache_failures_total 0",
		"ladd_request_duration_seconds_bucket",
		"ladd_expectation_cache_entries 1",
		"ladd_expectation_cache_misses_total 1",
		"ladd_expectation_cache_hit_rate",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	// A second check at the same claimed location is an expectation-cache
	// hit and must show up in the gauges.
	r3, body := postJSON(t, defaultURL(ts)+"/check", it)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("second check failed: %s", body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	_, _ = out.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(out.String(), "ladd_expectation_cache_hits_total 1") {
		t.Errorf("expectation cache hit not recorded:\n%s", out.String())
	}
}

func TestTrainDurationMetrics(t *testing.T) {
	// Training duration is the pool's dominant cold-start cost; it must
	// be recorded per successful run and exported as ladd_train_seconds.
	var trained atomic.Int32
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		trained.Add(1)
		if spec.Train.Seed == 666 {
			return nil, nil, fmt.Errorf("synthetic failure")
		}
		time.Sleep(5 * time.Millisecond)
		return trainDetector(spec, workers, nil)
	})

	spec := tinySpec()
	if _, err := pool.await(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.await(spec); err != nil { // cache hit: no new training
		t.Fatal(err)
	}
	bad := tinySpec()
	bad.Train.Seed = 666
	if _, err := pool.await(bad); err == nil {
		t.Fatal("synthetic failure should surface")
	}

	tot := pool.trainSeconds.Totals()
	if tot.Count != 1 {
		t.Errorf("train count = %d, want 1 (hits and failures must not count)", tot.Count)
	}
	if last := pool.trainLast.Load(); tot.Sum <= 0 || last <= 0 {
		t.Errorf("train seconds total=%v last=%vns, want > 0", tot.Sum, last)
	}
	if mean := pool.meanTrainSeconds(); mean <= 0 {
		t.Errorf("mean train seconds = %v, want > 0", mean)
	}

	text := scrapePool(t, pool)
	for _, want := range []string{
		"ladd_train_seconds_count 1",
		"ladd_train_seconds_sum ",
		"ladd_train_seconds_bucket{le=\"120\"} 1",
		"ladd_train_seconds_bucket{le=\"+Inf\"} 1",
		"ladd_train_last_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestExpCacheByteBudgetThroughPool pins the pool-wide byte budget: the
// pool installs one shared core.ExpCacheBudget on every detector it
// trains, /metrics exports the capacity and in-use gauges, and scoring
// correctness is unaffected by a tiny budget.
func TestExpCacheByteBudgetThroughPool(t *testing.T) {
	srv, err := NewServer(ServerConfig{Default: tinySpec(), ExpCacheBudgetBytes: 2048}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	det, err := srv.Pool().await(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if det.ExpCacheBudget() == nil {
		t.Fatal("pool did not install its byte budget on the trained detector")
	}
	capBytes := srv.Pool().expBudget.Capacity()
	if capBytes != 2048 {
		t.Fatalf("budget capacity = %d, want 2048", capBytes)
	}

	// Score through the server so entries land (or are refused) under
	// the budget; verdicts must match Check, which builds a fresh
	// expectation per call.
	model := det.Model()
	r := rng.New(3)
	h := srv.Handler()
	for i := 0; i < 10; i++ {
		g, p := model.SampleLocation(r)
		o := model.SampleObservation(p, g, r)
		body, _ := json.Marshal(BatchItemJSON{Observation: o, Location: PointJSON{X: p.X, Y: p.Y}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/detectors/"+tinySpec().ID()+"/check", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("check %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp CheckResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want := det.Check(o, p)
		if resp.Score != want.Score || resp.Alarm != want.Alarm {
			t.Fatalf("check %d: budgeted %+v != fresh %+v", i, resp, want)
		}
	}
	inUse := srv.Pool().expBudget.InUse()
	if inUse > 2048 {
		t.Fatalf("in-use bytes %d exceed the 2048 budget", inUse)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"ladd_expectation_cache_budget_bytes 2048",
		"ladd_expectation_cache_bytes_in_use",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
