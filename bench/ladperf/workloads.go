package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/localize"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
)

// workloadNames lists the workloads in the order -workload all runs
// them. README.md records why each exists.
var workloadNames = []string{"batch-hot", "single-cold", "alarm-correct", "train-under-load"}

// config sizes one workload run. Everything but the four command-line
// flags is fixed by the workload definitions; tests shrink the sizes.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // measured window (train-under-load: its registration schedule)
	warmup   time.Duration // discarded closed-loop warm-up before the window
	trace    bool          // the traced per-layer run
	scratch  string        // directory for stores; the run removes what it creates

	setups        int // server boots behind setup_s
	trials        int // default spec's training trials (cmd/ladd: 4000)
	hotRequests   int // distinct batch-hot requests in rotation
	coldLocations int // single-cold rotation: distinct claimed locations
	reports       int // distinct alarm-correct reports in rotation
	registrations int // train-under-load registrations
	burst         int // registrations per burst
	trainTrials   int // trials per train-under-load registration
}

// defaultConfig is the benchmark as defined in README.md, measuring for
// the given number of seconds.
func defaultConfig(workload string, seed uint64, seconds int) config {
	window := time.Duration(seconds) * time.Second
	return config{
		workload:      workload,
		seed:          seed,
		window:        window,
		warmup:        min(max(window/5, time.Second), 3*time.Second),
		scratch:       ".bench_build",
		setups:        7,
		trials:        4000,
		hotRequests:   128,
		coldLocations: 1 << 16,
		reports:       4096,
		registrations: 40,
		burst:         4,
		// 10,000 trials per registration over a 30 s schedule, scaled to the
		// window so the offered training load is the same at any length:
		// each burst then keeps both cores training for about a third of its
		// period, so the check stream's share of the cores moves little with
		// the host's speed.
		trainTrials: int(10000 * window / (30 * time.Second)),
	}
}

const (
	traceEvery    = 16 // a traced run traces one unit of work in this many
	statWindows   = 10 // sub-windows whose medians are obs_per_s and the latencies
	slowPoll      = 20 * time.Millisecond
	trialSamples  = 1000 // per-trial sampling/localization calls a traced run times
	setupDeadline = time.Minute
)

// metric is one reported number; n is the sample count behind it (0 for
// a plain count or ratio).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is everything one workload run reports.
type result struct {
	workload          string
	attempted, failed int
	metrics           []metric
	spans             []span
	notes             []string
}

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// bench is one workload run's state.
type bench struct {
	cfg     config
	spec    serve.DetectorSpec // the default spec every check targets
	prefix  string             // "/v2/detectors/<id>"
	or      *oracle
	live    *ladd
	replay  *serve.Server // trace runs: the server handler replays go to
	replayH http.Handler
	runDir  string
	base    time.Time
	res     result
	pending []float64 // register → first non-pending answer, seconds

	// What the measured window produced, for the per-layer metrics.
	samples []sample
	obs     int
	alarms  int
	snaps   []snapshot // trace runs: at the window start and where tracing starts
	rssMB   float64    // peak RSS when the load stopped, before its analysis
}

// run executes one workload in this process and returns its report.
func run(cfg config) (*result, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	b := &bench{cfg: cfg, spec: defaultSpec(cfg.trials), base: time.Now()}
	b.res.workload = cfg.workload
	b.prefix = "/v2/detectors/" + b.spec.ID()
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	b.runDir = dir
	defer os.RemoveAll(dir)

	if b.or, err = newOracle(b.spec); err != nil {
		return nil, err
	}
	// Boot before generating inputs, so that every workload's setup_s is
	// taken on the same small heap.
	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.live.close()
	// Encoding a large rotation makes far more garbage than the rotation
	// keeps; collecting it eagerly keeps it out of rss_peak_mb, which
	// should reflect the server, and FreeOSMemory returns it before the
	// load starts.
	gcPercent := debug.SetGCPercent(10)
	r := rng.New(cfg.seed)
	var reqs []request
	switch cfg.workload {
	case "batch-hot", "train-under-load":
		reqs = b.or.hotRequests(b.prefix+"/check/batch", r, cfg.hotRequests)
	case "single-cold":
		reqs = b.or.coldRequests(b.prefix+"/check", r, cfg.coldLocations)
	case "alarm-correct":
		reqs = b.or.alarmReports(b.prefix, r, cfg.reports)
	}
	var specs []serve.DetectorSpec
	if cfg.workload == "train-under-load" {
		specs = trainSpecs(r, cfg.registrations, cfg.trainTrials)
	}
	debug.SetGCPercent(gcPercent)
	debug.FreeOSMemory()

	if cfg.trace {
		if err := b.startReplay(); err != nil {
			return nil, err
		}
	}

	trained := b.spec
	if cfg.workload == "train-under-load" {
		if err := b.trainUnderLoad(reqs, specs); err != nil {
			return nil, err
		}
		trained = specs[0]
	} else {
		b.checkLoad(reqs)
	}
	if cfg.trace {
		if err := b.traceTraining(trained); err != nil {
			return nil, err
		}
		b.layerMetrics(reqs)
	}
	b.res.add("rss_peak_mb", b.rssMB, "MB", 0)
	b.res.add("error_rate", ratio(float64(b.res.failed), float64(b.res.attempted)), "fraction", b.res.attempted)
	return &b.res, nil
}

// setup boots cfg.setups fresh servers one after another, each timed
// from server start until its default detector is ready, and keeps the
// last one as the live server. setup_s is the median of the boot times,
// each divided by the mean slowdown probed while it ran.
func (b *bench) setup() error {
	var times, raw []float64
	pr := newProbe()
	for k := range b.cfg.setups {
		storeDir := ""
		if b.cfg.workload == "train-under-load" {
			storeDir = filepath.Join(b.runDir, "setup-"+strconv.Itoa(k))
		}
		// A daemon boots with an empty heap; without this, garbage from
		// the previous boot would be collected during this one.
		runtime.GC()
		pr.next = time.Time{} // probe as the boot starts
		mark := len(pr.events)
		start := time.Now()
		l, err := startLadd(b.cfg.trials, storeDir)
		if err != nil {
			return err
		}
		c := newConn(l.addr)
		reg := newRegistration(b.spec, start)
		awaitReady(c, []*registration{reg}, start.Add(setupDeadline), pollEvery, pr)
		c.close()
		b.res.attempted++
		if reg.err == nil && reg.threshold != b.or.det.Threshold() {
			reg.err = fmt.Errorf("default detector threshold %v, reference %v", reg.threshold, b.or.det.Threshold())
		}
		if reg.err != nil {
			b.res.failed++
			l.close()
			return fmt.Errorf("setup: %w", reg.err)
		}
		raw = append(raw, reg.ready.Seconds())
		times = append(times, reg.ready.Seconds()/pr.meanSince(mark))
		b.pending = append(b.pending, reg.pending.Seconds())
		if k == b.cfg.setups-1 {
			b.live = l
		} else {
			l.close()
		}
	}
	b.res.add("setup_s", median(times), "s", len(times))
	b.res.notes = append(b.res.notes, fmt.Sprintf("setup_s of each boot: %.4f s; unscaled %.4f s", times, raw))
	return nil
}

// startReplay builds the second server handler replays go to, so that
// timing the handler never touches the live server's caches.
func (b *bench) startReplay() error {
	srv, err := newServer(b.cfg.trials, "")
	if err != nil {
		return err
	}
	if _, _, err := srv.Pool().Register(b.spec); err != nil {
		return err
	}
	deadline := time.Now().Add(setupDeadline)
	for {
		st, _ := srv.Pool().Lookup(b.spec.ID())
		if st.State == serve.StateReady {
			break
		}
		if st.State == serve.StateFailed || time.Now().After(deadline) {
			return fmt.Errorf("replay server: default detector is %s", st.State)
		}
		time.Sleep(pollEvery)
	}
	b.replay, b.replayH = srv, srv.Handler()
	return nil
}

// unitResult is what one unit of work did.
type unitResult struct {
	end         time.Time     // when its last live request completed
	lat         time.Duration // live latency of the whole unit
	obs, alarms int
	corr        time.Duration // live latency of its correction, if any
}

// unitFn performs unit i of a closed loop on w's connection: it sends
// the live request(s), checks every answer against the oracle and,
// when traced, replays the unit into the replay server and records
// spans.
type unitFn func(w *worker, i int, traced bool) unitResult

// worker is the closed loop's client connection and what it measured.
type worker struct {
	c                 *conn
	pr                *probe
	rec               recorder
	samples           sampleLog
	corrMS            []float64
	alarms            int
	attempted, failed int
	complaints        int
}

// expect counts one answer and reports a wrong one on stderr (the first
// few per worker).
func (w *worker) expect(ok bool, what string, status int, err error, body []byte) {
	w.attempted++
	if ok {
		return
	}
	w.failed++
	if w.complaints++; w.complaints <= 3 {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladperf: %s: %v\n", what, err)
		} else {
			fmt.Fprintf(os.Stderr, "ladperf: %s: status %d, unexpected answer %.200q\n", what, status, body)
		}
	}
}

// loopPlan bounds a closed loop: units started before t0 are warm-up
// and discarded; the loop stops at end or, when end is zero, once stop
// is closed. Traced runs trace units started at or after traceFrom.
type loopPlan struct {
	t0, end   time.Time
	stop      <-chan struct{}
	traceFrom time.Time
}

// closedLoop runs units one after another on a single connection: each
// is sent when the previous one has been answered. One connection keeps
// one request in the server at a time, so its latency does not depend on
// whether the two in-flight requests a second connection would add get a
// core each or share one — on a two-core host shared with other tenants
// that coin flip doubled or halved the median from run to run. Between
// units, while nothing is in flight, the loop probes the host's speed.
func (b *bench) closedLoop(p loopPlan, unit unitFn) *worker {
	w := &worker{c: newConn(b.live.addr), pr: newProbe(), rec: recorder{base: b.base}}
	defer w.c.close()
	inTrace := 0 // units started in the traced phase; the first of every traceEvery is traced
	for i := 0; ; i++ {
		now := time.Now()
		if !p.end.IsZero() && !now.Before(p.end) {
			return w
		}
		select {
		case <-p.stop:
			return w
		default:
		}
		measured := !now.Before(p.t0)
		traced := false
		if b.cfg.trace && measured && !now.Before(p.traceFrom) {
			traced = inTrace%traceEvery == 0
			inTrace++
		}
		slow := w.pr.tick()
		u := unit(w, i, traced)
		if measured {
			w.samples.add(newSample(u.end.Sub(p.t0), u.lat, u.obs, slow))
			w.alarms += u.alarms
			if u.corr > 0 {
				w.corrMS = append(w.corrMS, float64(u.corr)/1e6)
			}
		}
	}
}

// checkUnit is one check request (batch or single) per unit.
func (b *bench) checkUnit(reqs []request) unitFn {
	batch := b.cfg.workload != "single-cold"
	same := sameAnswer[serve.CheckResponse]
	if batch {
		same = sameAnswer[serve.BatchResponse]
	}
	return func(w *worker, i int, traced bool) unitResult {
		r := &reqs[i%len(reqs)]
		t0 := time.Now()
		status, body, err := w.c.do(r.msg)
		t1 := time.Now()
		w.expect(err == nil && status == http.StatusOK && same(body, r.want), "check", status, err, body)
		if traced {
			id := "u" + strconv.Itoa(i)
			w.rec.add(id, "report", "", t0, t1)
			b.replayCheck(w, id, r, batch, same, t0, t1)
		}
		return unitResult{end: t1, lat: t1.Sub(t0), obs: r.obs, alarms: r.alarms}
	}
}

// alarmUnit is one alarm-correct report: a single check and, when it
// alarms, the correction that follows on the same connection.
func (b *bench) alarmUnit(reqs []request) unitFn {
	sameCheck := sameAnswer[serve.CheckResponse]
	sameCorr := sameAnswer[serve.CorrectResponse]
	return func(w *worker, i int, traced bool) unitResult {
		r := &reqs[i%len(reqs)]
		t0 := time.Now()
		status, body, err := w.c.do(r.msg)
		t1 := time.Now()
		w.expect(err == nil && status == http.StatusOK && sameCheck(body, r.want), "check", status, err, body)
		u := unitResult{end: t1, lat: t1.Sub(t0), obs: 1, alarms: r.alarms}
		var t2 time.Time
		if r.corr != nil {
			t2 = time.Now()
			status, body, err = w.c.do(r.corr.msg)
			u.end = time.Now()
			u.lat, u.corr = u.end.Sub(t0), u.end.Sub(t2)
			w.expect(err == nil && status == http.StatusOK && sameCorr(body, r.corr.want), "correct", status, err, body)
		}
		if traced {
			id := "u" + strconv.Itoa(i)
			w.rec.add(id, "report", "", t0, u.end)
			b.replayCheck(w, id, r, false, sameCheck, t0, t1)
			if r.corr != nil {
				w.rec.add(id, "net.correct", "report", t2, u.end)
				b.replayCorrect(w, id, r, sameCorr)
			}
		}
		return u
	}
}

// replayCheck records the spans of a traced check below the trace's
// "report": net.check is the live round trip [t0, t1], and the handler,
// pool lookup and scoring beneath it are timed by replaying the request
// into the replay server and calling those layers directly. Probes, in
// a trace of their own, time the expectation fill at the request's
// first claimed location and, on workloads that never correct, the
// correction of its first observation.
func (b *bench) replayCheck(w *worker, id string, r *request, batch bool, same func(got, want []byte) bool, t0, t1 time.Time) {
	w.rec.add(id, "net.check", "report", t0, t1)
	path := b.prefix + "/check"
	if batch {
		path += "/batch"
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(r.body()))
	rr := httptest.NewRecorder()
	h0 := time.Now()
	b.replayH.ServeHTTP(rr, req)
	h1 := time.Now()
	w.expect(rr.Code == http.StatusOK && same(rr.Body.Bytes(), r.want), "replayed check", rr.Code, nil, rr.Body.Bytes())

	items, err := decodeItems(r.body(), batch)
	if err != nil {
		w.expect(false, "decoding a request body", 0, err, nil)
		return
	}
	l0 := time.Now()
	det, _, ok := b.replay.Pool().Detector(b.spec.ID())
	l1 := time.Now()
	if !ok {
		w.expect(false, "replay detector lookup", 0, fmt.Errorf("detector %s not ready", b.spec.ID()), nil)
		return
	}
	s0 := time.Now()
	if batch {
		det.CheckBatch(items)
	} else {
		det.CheckPooled(items[0].Observation, items[0].Location)
	}
	s1 := time.Now()
	w.rec.add(id, "serve.check", "net.check", h0, h1)
	w.rec.add(id, "serve.pool_lookup", "serve.check", l0, l1)
	w.rec.add(id, "core.score", "serve.check", s0, s1)

	probe := "p" + id
	f0 := time.Now()
	core.NewExpectation(det.Model(), items[0].Location)
	f1 := time.Now()
	w.rec.add(probe, "core.expectation_fill", "", f0, f1)
	if b.cfg.workload != "alarm-correct" {
		corr, _ := b.replay.Pool().Corrector(b.spec.ID())
		c0 := time.Now()
		_, err := corr.Correct(items[0].Observation)
		c1 := time.Now()
		if err == nil {
			w.rec.add(probe, "localize.correct", "", c0, c1)
		}
	}
}

// replayCorrect records the handler, corrector lookup and localization
// spans of a traced report's correction by replay, as replayCheck does
// for the check.
func (b *bench) replayCorrect(w *worker, id string, r *request, same func(got, want []byte) bool) {
	req := httptest.NewRequest("POST", b.prefix+"/correct", bytes.NewReader(r.corr.body()))
	rr := httptest.NewRecorder()
	h0 := time.Now()
	b.replayH.ServeHTTP(rr, req)
	h1 := time.Now()
	w.expect(rr.Code == http.StatusOK && same(rr.Body.Bytes(), r.corr.want), "replayed correct", rr.Code, nil, rr.Body.Bytes())
	items, err := decodeItems(r.body(), false)
	if err != nil {
		w.expect(false, "decoding a request body", 0, err, nil)
		return
	}
	l0 := time.Now()
	corr, ok := b.replay.Pool().Corrector(b.spec.ID())
	l1 := time.Now()
	if !ok {
		w.expect(false, "replay corrector lookup", 0, fmt.Errorf("detector %s not ready", b.spec.ID()), nil)
		return
	}
	c0 := time.Now()
	_, err = corr.Correct(items[0].Observation)
	c1 := time.Now()
	w.expect(err == nil, "replayed correction", 0, err, nil)
	w.rec.add(id, "serve.correct", "net.correct", h0, h1)
	w.rec.add(id, "serve.corrector_lookup", "serve.correct", l0, l1)
	w.rec.add(id, "localize.correct", "serve.correct", c0, c1)
}

// checkLoad runs a check workload: a closed loop on one connection, a
// discarded warm-up, then the measured window. A traced run traces
// only the window's second half, so the first half measures the same
// load untraced.
func (b *bench) checkLoad(reqs []request) {
	unit := b.checkUnit(reqs)
	if b.cfg.workload == "alarm-correct" {
		unit = b.alarmUnit(reqs)
	}
	t0 := time.Now().Add(b.cfg.warmup)
	p := loopPlan{t0: t0, end: t0.Add(b.cfg.window), traceFrom: t0.Add(b.cfg.window / 2)}
	snaps := b.snapshotsAt(p.t0, p.traceFrom)
	w := b.closedLoop(p, unit)
	b.rssMB = peakRSSMB()
	b.snaps = <-snaps
	b.collect(w, p.t0)
}

// trainUnderLoad runs the cold-start workload: registrations arrive
// open-loop in bursts spread over the window while one closed-loop
// connection keeps checking, and the run ends when every registration
// is ready.
func (b *bench) trainUnderLoad(reqs []request, specs []serve.DetectorSpec) error {
	t0 := time.Now().Add(b.cfg.warmup)
	bursts := (len(specs) + b.cfg.burst - 1) / b.cfg.burst
	gap := b.cfg.window / time.Duration(bursts)
	regs := make([]*registration, len(specs))
	for i, s := range specs {
		regs[i] = newRegistration(s, t0.Add(time.Duration(i/b.cfg.burst)*gap))
	}
	stop := make(chan struct{})
	var lag time.Duration
	go func() {
		defer close(stop)
		c := newConn(b.live.addr)
		defer c.close()
		lag = awaitReady(c, regs, t0.Add(2*b.cfg.window+30*time.Second), slowPoll, nil)
	}()
	p := loopPlan{t0: t0, stop: stop, traceFrom: t0.Add(b.cfg.window / 2)}
	snaps := b.snapshotsAt(p.t0, p.traceFrom)
	w := b.closedLoop(p, b.checkUnit(reqs))
	<-stop
	b.rssMB = peakRSSMB()
	b.snaps = <-snaps
	b.collect(w, p.t0)

	var ready []float64
	b.pending = b.pending[:0]
	for _, g := range regs {
		b.res.attempted++
		if g.err != nil {
			b.res.failed++
			fmt.Fprintf(os.Stderr, "ladperf: registration: %v\n", g.err)
			continue
		}
		ready = append(ready, g.ready.Seconds())
		b.pending = append(b.pending, g.pending.Seconds())
	}
	// The first and last registrations' thresholds against an
	// independent training of the same spec.
	for _, i := range []int{0, len(regs) - 1} {
		if regs[i].err != nil {
			continue
		}
		b.res.attempted++
		want, err := referenceThreshold(specs[i])
		if err != nil {
			return err
		}
		if regs[i].threshold != want {
			b.res.failed++
			fmt.Fprintf(os.Stderr, "ladperf: registration %d threshold %v, reference %v\n", i, regs[i].threshold, want)
		}
	}
	slices.Sort(ready)
	b.res.add("train_ready_p50_s", percentile(ready, 50), "s", len(ready))
	if p, ok := tailPercentile(len(ready)); ok {
		b.res.add(fmt.Sprintf("train_ready_p%g_s", p), percentile(ready, p), "s", len(ready))
	}
	b.res.notes = append(b.res.notes, fmt.Sprintf("registrations: %d in bursts of %d every %v; generator lag max %v",
		len(regs), b.cfg.burst, gap, lag.Round(time.Microsecond)))
	return nil
}

// collect folds the loop's counts, spans and samples into the run and
// derives the end-to-end metrics over the measured window. Units that
// complete after it are left out: a check workload's last one, and on
// train-under-load the check stream that runs on while the last
// registrations drain, so that every statistics window holds one burst
// period of the registration schedule. A traced run takes the metrics
// from the window's untraced first half.
func (b *bench) collect(w *worker, t0 time.Time) {
	b.res.attempted += w.attempted
	b.res.failed += w.failed
	b.res.spans = append(b.res.spans, w.rec.spans...)
	b.alarms = w.alarms
	for _, c := range w.samples.chunks {
		for _, s := range c {
			if s.at() <= b.cfg.window {
				b.samples = append(b.samples, s)
				b.obs += int(s.obs)
			}
		}
	}
	ss, span, windows := b.samples, b.cfg.window, statWindows
	if b.cfg.trace {
		span, windows = span/2, windows/2
		ss = slices.DeleteFunc(slices.Clone(ss), func(s sample) bool { return s.at() >= span })
	}
	var pauses []pause
	var slows []float64
	for _, e := range w.pr.events {
		if at := e.at.Sub(t0); at >= 0 && at < span {
			pauses = append(pauses, pause{at, e.pause})
			slows = append(slows, e.slow)
		}
	}
	n := len(ss)
	st := windowStats(ss, pauses, span, windows, true)
	raw := windowStats(ss, pauses, span, windows, false)
	// A window's p99 has minTail samples beyond it only from 100·minTail
	// samples on, so a slow stream's tail is taken over the most windows
	// that all reach that.
	tailWindows, tail := windows, st
	for ; tailWindows > 1 && tail.minCount < 100*minTail; tailWindows-- {
		tail = windowStats(ss, pauses, span, tailWindows-1, true)
	}
	b.res.add("obs_per_s", st.rate, "obs/s", n)
	b.res.add("latency_p50_ms", st.p50, "ms", n)
	b.res.add("latency_p99_ms", tail.p99, "ms", n)
	b.res.add("host_slowdown", mean(slows), "ratio", len(slows))
	b.res.notes = append(b.res.notes,
		fmt.Sprintf("obs_per_s and latency_p50_ms: medians over %d windows of %v, the smallest with %d samples; unscaled %.0f obs/s and %.4g ms",
			windows, span/time.Duration(windows), st.minCount, raw.rate, raw.p50),
		fmt.Sprintf("latency_p99_ms: median over %d windows, the smallest with %d samples; unscaled %.4g ms",
			tailWindows, tail.minCount, windowStats(ss, pauses, span, tailWindows, false).p99))
	if len(w.corrMS) > 0 {
		slices.Sort(w.corrMS)
		b.res.add("correct_p50_ms", percentile(w.corrMS, 50), "ms", len(w.corrMS))
		b.res.add("correct_p99_ms", percentile(w.corrMS, 99), "ms", len(w.corrMS))
	}
}

// snapshot is the process-wide counters the runtime metrics difference.
type snapshot struct {
	alloc, gcs   uint64
	cpu          time.Duration
	hits, misses uint64
}

func (b *bench) snapshot() snapshot {
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := snapshot{
		alloc: ms[0].Value.Uint64(),
		gcs:   ms[1].Value.Uint64(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	if det, _, ok := b.live.srv.Pool().Detector(b.spec.ID()); ok {
		_, s.hits, s.misses = det.ExpCacheStats()
	}
	return s
}

// snapshotsAt takes a snapshot at each of ts in turn; traced runs only
// (an untraced run gets an empty list at once).
func (b *bench) snapshotsAt(ts ...time.Time) <-chan []snapshot {
	out := make(chan []snapshot, 1)
	if !b.cfg.trace {
		out <- nil
		return out
	}
	go func() {
		snaps := make([]snapshot, 0, len(ts))
		for _, t := range ts {
			time.Sleep(time.Until(t))
			snaps = append(snaps, b.snapshot())
		}
		out <- snaps
	}()
	return out
}

// traceTraining times the training layers outside any live load, after
// the workload has drained: the batched run of spec as the scheduler
// drives it (trial batch, checkpoint encode, store write), then single
// trials' observation sampling and localization. The run must
// reproduce the reference threshold.
func (b *bench) traceTraining(spec serve.DetectorSpec) error {
	rec := recorder{base: b.base}
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		return err
	}
	cfg := spec.Train.TrainConfig()
	cfg.Workers = max(1, runtime.GOMAXPROCS(0)/serve.DefaultTrainConcurrency) // the pool's per-job budget
	tr, err := core.NewTrainRun(model, core.MetricByName(spec.Metric), cfg)
	if err != nil {
		return err
	}
	st, err := store.OpenFS(filepath.Join(b.runDir, "train-replay"))
	if err != nil {
		return err
	}
	ck := core.TrainCheckpoint{SpecKey: spec.Key(), DeploymentHash: spec.Deployment.Hash()}
	var buf []byte
	for k := 0; !tr.Done(); k++ {
		id := "t" + strconv.Itoa(k)
		t0 := time.Now()
		if _, err := tr.RunBatch(sched.DefaultBatchUnits); err != nil {
			return err
		}
		t1 := time.Now()
		tr.CheckpointInto(&ck)
		buf = ck.AppendBinary(buf[:0])
		t2 := time.Now()
		if err := st.Put("ckpt-replay", buf); err != nil {
			return err
		}
		t3 := time.Now()
		rec.add(id, "core.train_batch", "", t0, t1)
		rec.add(id, "core.ckpt_encode", "", t1, t2)
		rec.add(id, "store.put", "", t2, t3)
	}
	det, _, err := tr.Finish()
	if err != nil {
		return err
	}
	want, err := referenceThreshold(spec)
	if err != nil {
		return err
	}
	b.res.attempted++
	if det.Threshold() != want {
		b.res.failed++
		fmt.Fprintf(os.Stderr, "ladperf: replayed training threshold %v, reference %v\n", det.Threshold(), want)
	}

	loc := localize.NewBeaconlessModel(model)
	r := rng.New(b.cfg.seed)
	o := make([]int, model.NumGroups())
	for k := range trialSamples {
		id := "s" + strconv.Itoa(k)
		l := inField(model, r)
		t0 := time.Now()
		model.SampleObservationInto(o, l.p, l.group, r)
		t1 := time.Now()
		_, err := loc.LocalizeObservation(o)
		t2 := time.Now()
		rec.add(id, "deploy.sample_obs", "", t0, t1)
		if err == nil {
			rec.add(id, "localize.localize", "", t1, t2)
		}
	}
	b.res.spans = append(b.res.spans, rec.spans...)
	return nil
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, the runtime snapshots and the live server's counters.
func (b *bench) layerMetrics(reqs []request) {
	traces := groupTraces(b.res.spans)
	p50 := func(name string, xs []float64, unit string, scale float64) {
		b.res.add(name, median(xs)*scale, unit, len(xs))
	}
	p50("net.transport_us_p50", selfUS(traces, "net.check"), "us", 1)
	p50("serve.handler_us_p50", durationsUS(traces, "serve.check"), "us", 1)
	p50("serve.self_us_p50", selfUS(traces, "serve.check"), "us", 1)
	p50("serve.pool_lookup_us_p50", durationsUS(traces, "serve.pool_lookup"), "us", 1)
	p50("core.score_us_p50", durationsUS(traces, "core.score"), "us", 1)
	p50("core.expectation_fill_us_p50", durationsUS(traces, "core.expectation_fill"), "us", 1)
	p50("localize.correct_us_p50", durationsUS(traces, "localize.correct"), "us", 1)
	p50("core.train_batch_ms_p50", durationsUS(traces, "core.train_batch"), "ms", 1e-3)
	p50("core.ckpt_encode_us_p50", durationsUS(traces, "core.ckpt_encode"), "us", 1)
	p50("store.put_ms_p50", durationsUS(traces, "store.put"), "ms", 1e-3)
	p50("deploy.sample_obs_us_p50", durationsUS(traces, "deploy.sample_obs"), "us", 1)
	p50("localize.localize_us_p50", durationsUS(traces, "localize.localize"), "us", 1)
	reports := durationsUS(traces, "report")
	b.res.add("trace.unattributed_share", unattributedShare(traces, "report"), "share", len(reports))

	var reqBytes, respBytes int
	for _, r := range reqs {
		reqBytes += len(r.body())
		respBytes += len(r.want)
	}
	b.res.add("serve.req_bytes", float64(reqBytes)/float64(len(reqs)), "bytes", len(reqs))
	b.res.add("serve.resp_bytes", float64(respBytes)/float64(len(reqs)), "bytes", len(reqs))

	// The window's untraced first half against its traced second half.
	var untraced, traced []sample
	obsA := 0
	for _, s := range b.samples {
		if s.at() < b.cfg.window/2 {
			untraced = append(untraced, s)
			obsA += int(s.obs)
		} else {
			traced = append(traced, s)
		}
	}
	b.res.add("trace.overhead_share",
		percentile(latencyMS(traced, false), 50)/percentile(latencyMS(untraced, false), 50)-1, "share", len(traced))
	s0, s1 := b.snaps[0], b.snaps[1]
	b.res.add("runtime.alloc_kb_per_req", ratio(float64(s1.alloc-s0.alloc)/1024, float64(len(untraced))), "kB", len(untraced))
	b.res.add("runtime.gc_cycles", float64(s1.gcs-s0.gcs), "count", 0)
	b.res.add("runtime.cpu_us_per_obs", ratio(float64(s1.cpu-s0.cpu)/1e3, float64(obsA)), "us", obsA)
	lookups := s1.hits - s0.hits + s1.misses - s0.misses
	b.res.add("core.expcache_hit_ratio", ratio(float64(s1.hits-s0.hits), float64(lookups)), "ratio", int(lookups))
	b.res.add("core.alarm_ratio", ratio(float64(b.alarms), float64(b.obs)), "ratio", b.obs)

	st := b.live.srv.Pool().SchedStats()
	b.res.add("sched.wait_s_mean", ratio(st.Wait.Sum, float64(st.Wait.Count)), "s", int(st.Wait.Count))
	b.res.add("sched.run_s_mean", ratio(st.Run.Sum, float64(st.Run.Count)), "s", int(st.Run.Count))
	b.res.add("sched.batches", float64(st.Batches), "count", 0)
	b.res.add("serve.pending_s_p50", median(b.pending), "s", len(b.pending))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Maxrss is in kB on Linux
}
