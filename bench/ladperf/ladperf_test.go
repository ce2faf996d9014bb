package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{40, 75}, {1000, 99}, {100, 90}, {11, 100 * (1 - 10.0/11)}} {
		p, ok := tailPercentile(tc.n)
		if !ok || math.Abs(p-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, p, ok, tc.want)
			continue
		}
		// Exactly minTail samples lie beyond the percentile's value.
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		v := percentile(sorted, p)
		if beyond := tc.n - int(v); beyond != minTail {
			t.Errorf("n=%d: p%g = %v leaves %d samples beyond it, want %d", tc.n, p, v, beyond, minTail)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, ok := tailPercentile(n); ok {
			t.Errorf("tailPercentile(%d) supported a tail", n)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for p, want := range map[float64]float64{0: 1, 25: 1, 50: 2, 75: 3, 99: 4, 100: 4} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowStats(t *testing.T) {
	// Ten 1 s windows of 100 samples with latencies 1..100 ms, except the
	// fourth, whose samples are all 1 s: its p50 and p99 are outliers the
	// medians over windows ignore.
	var ss []sample
	for w := range 10 {
		for i := 1; i <= 100; i++ {
			lat := time.Duration(i) * time.Millisecond
			if w == 3 {
				lat = time.Second
			}
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			ss = append(ss, newSample(at, lat, 2, 1))
		}
	}
	ss = append(ss, newSample(10*time.Second, time.Millisecond, 2, 1)) // the window's last completion
	st := windowStats(ss, nil, 10*time.Second, 10, true)
	if st.rate != 200 || st.p50 != 50 || st.p99 != 99 {
		t.Errorf("median window rate %v obs/s, p50 %v ms, p99 %v ms; want 200, 50, 99", st.rate, st.p50, st.p99)
	}
	if st.minCount != 100 {
		t.Errorf("smallest window has %d samples, want 100", st.minCount)
	}
}

// TestWindowStatsScaling checks the slowdown correction: units that ran
// while the host was twice as slow count as having taken half their
// time, and probe pauses do not count as time the loop had.
func TestWindowStatsScaling(t *testing.T) {
	var ss []sample
	var pauses []pause
	for i := range 100 {
		at := time.Duration(i) * 10 * time.Millisecond
		ss = append(ss, newSample(at, 8*time.Millisecond, 1, 2))
		pauses = append(pauses, pause{at, time.Millisecond})
	}
	// 100 observations in 1 s less 100 ms of pauses.
	raw := windowStats(ss, pauses, time.Second, 1, false)
	if math.Abs(raw.rate-100/0.9) > 1e-9 || raw.p50 != 8 {
		t.Errorf("unscaled rate %v obs/s, p50 %v ms; want %v, 8", raw.rate, raw.p50, 100/0.9)
	}
	scaled := windowStats(ss, pauses, time.Second, 1, true)
	if math.Abs(scaled.rate-200/0.9) > 1e-9 || scaled.p50 != 4 {
		t.Errorf("scaled rate %v obs/s, p50 %v ms; want %v, 4", scaled.rate, scaled.p50, 200/0.9)
	}
}

// TestProbe checks that the probe measures on its first call and holds
// its value until the next probe is due.
func TestProbe(t *testing.T) {
	p := newProbe()
	s := p.tick()
	if len(p.events) != 1 || s <= 0 || math.IsInf(s, 0) {
		t.Fatalf("first tick: %d probes, slowdown %v", len(p.events), s)
	}
	p.next = time.Now().Add(time.Hour)
	if p.tick() != s || len(p.events) != 1 {
		t.Error("a tick before the next probe was due probed")
	}
	if got := p.meanSince(0); got != s {
		t.Errorf("meanSince(0) = %v, want %v", got, s)
	}
	if got := p.meanSince(1); got != 1 {
		t.Errorf("meanSince past the last probe = %v, want 1", got)
	}
}

// spanAt is a span of trace id starting at start and lasting dur.
func spanAt(id, name, parent string, start, dur int64) span {
	return span{TraceID: id, Name: name, Parent: parent, StartNS: start, EndNS: start + dur}
}

// checkTree is a traced check whose replayed handler, lookup and score
// lie after the live round trip, as the benchmark records them.
func checkTree(id string, rt int64) []span {
	return []span{
		spanAt(id, "report", "", 0, rt),
		spanAt(id, "net.check", "report", 0, rt),
		spanAt(id, "serve.check", "net.check", 1000, 60),
		spanAt(id, "serve.pool_lookup", "serve.check", 1100, 5),
		spanAt(id, "core.score", "serve.check", 1200, 20),
	}
}

func TestSelfTimeAndUnattributedShare(t *testing.T) {
	a := checkTree("a", 100)
	b := checkTree("b", 120)
	// c's report also corrects: 150 ns of correction after a 50 ns gap.
	c := append(checkTree("c", 100),
		spanAt("c", "net.correct", "report", 150, 150),
		spanAt("c", "serve.correct", "net.correct", 2000, 100),
		spanAt("c", "localize.correct", "serve.correct", 2200, 70),
	)
	c[0].EndNS = 300 // the report spans both requests
	probe := []span{spanAt("pa", "core.expectation_fill", "", 3000, 999)}

	self := selfTimes(c)
	for name, want := range map[string]int64{
		"report": 50, "net.check": 40, "serve.check": 35, "serve.pool_lookup": 5,
		"core.score": 20, "net.correct": 50, "serve.correct": 30, "localize.correct": 70,
	} {
		if self[name] != want {
			t.Errorf("self(%s) = %d, want %d", name, self[name], want)
		}
	}

	var spans []span
	for _, tr := range [][]span{a, b, c, probe} {
		spans = append(spans, tr...)
	}
	traces := groupTraces(spans)
	if len(traces) != 4 {
		t.Fatalf("groupTraces found %d traces, want 4", len(traces))
	}
	// Layer medians over the three reports, a missing span counting as
	// zero: net.check 40 (40, 60, 40), serve.check 35, pool lookup 5,
	// score 20, and 0 for each correction span; their sum, 100, against
	// the median report of 120 leaves 1/6 unattributed. The probe trace
	// has no report and does not count.
	if got, want := unattributedShare(traces, "report"), 1-100.0/120; math.Abs(got-want) > 1e-12 {
		t.Errorf("unattributedShare = %v, want %v", got, want)
	}
	if got := selfUS(traces, "net.check"); !slices.Equal(got, []float64{0.04, 0.06, 0.04}) {
		t.Errorf("selfUS(net.check) = %v", got)
	}
	if got := durationsUS(traces, "localize.correct"); !slices.Equal(got, []float64{0.07}) {
		t.Errorf("durationsUS(localize.correct) = %v", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tf := traceFile{Workload: "batch-hot", Seed: 9, Spans: append(checkTree("u0", 100), spanAt("t0", "store.put", "", 5, 7))}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeTrace(path, tf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got traceFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tf) {
		t.Errorf("round trip changed the trace:\n got %+v\nwant %+v", got, tf)
	}
}

// smokeConfig shrinks a workload to fit a unit test: 1 s windows and
// small trial counts and rotations.
func smokeConfig(t *testing.T, workload string) config {
	cfg := defaultConfig(workload, 7, 1)
	cfg.warmup = 200 * time.Millisecond
	cfg.scratch = t.TempDir()
	cfg.setups = 2
	cfg.trials = 200
	cfg.hotRequests = 8
	cfg.coldLocations = 4 * core.DefaultExpCacheCapacity
	cfg.reports = 256
	cfg.registrations = 8
	cfg.trainTrials = 600
	return cfg
}

func TestSameAnswerFallsBackToDecoding(t *testing.T) {
	want := answerJSON(serve.CheckResponse{Score: 1.5, Threshold: 2, Alarm: false})
	if !sameAnswer[serve.CheckResponse]([]byte(`{ "alarm": false, "threshold": 2, "score": 1.5 }`), want) {
		t.Error("a differently formatted equal answer was rejected")
	}
	if sameAnswer[serve.CheckResponse]([]byte(`{"score":1.5,"threshold":2,"alarm":true}`), want) {
		t.Error("a different verdict was accepted")
	}
}

// TestOracleReportsCorruptedAnswers corrupts one expected answer and
// checks that exactly that answer counts as a failure.
func TestOracleReportsCorruptedAnswers(t *testing.T) {
	for _, workload := range []string{"batch-hot", "alarm-correct"} {
		t.Run(workload, func(t *testing.T) {
			cfg := smokeConfig(t, workload)
			b := &bench{cfg: cfg, spec: defaultSpec(cfg.trials), base: time.Now(), runDir: t.TempDir()}
			b.prefix = "/v2/detectors/" + b.spec.ID()
			var err error
			if b.or, err = newOracle(b.spec); err != nil {
				t.Fatal(err)
			}
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			defer b.live.close()

			var reqs []request
			var unit unitFn
			if workload == "batch-hot" {
				reqs = b.or.hotRequests(b.prefix+"/check/batch", rng.New(3), 2)
				var resp serve.BatchResponse
				if err := json.Unmarshal(reqs[1].want, &resp); err != nil {
					t.Fatal(err)
				}
				resp.Results[5].Alarm = !resp.Results[5].Alarm
				reqs[1].want = answerJSON(resp)
				unit = b.checkUnit(reqs)
			} else {
				all := b.or.alarmReports(b.prefix, rng.New(3), 64)
				i := slices.IndexFunc(all, func(r request) bool { return r.corr != nil })
				if i < 0 {
					t.Fatal("no report alarms")
				}
				reqs = []request{all[0], all[i]}
				var resp serve.CorrectResponse
				if err := json.Unmarshal(reqs[1].corr.want, &resp); err != nil {
					t.Fatal(err)
				}
				resp.Location.X += 1e-9
				corr := *reqs[1].corr
				corr.want = answerJSON(resp)
				reqs[1].corr = &corr
				unit = b.alarmUnit(reqs)
			}
			w := &worker{c: newConn(b.live.addr)}
			defer w.c.close()
			for i := range reqs {
				unit(w, i, false)
			}
			if w.failed != 1 {
				t.Errorf("%d of %d answers failed, want exactly the corrupted one", w.failed, w.attempted)
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload, traced, at test size: every answer must
// be right and every metric BENCHMARK.json names must be reported, with
// its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	var e2e, layers, names []string
	for _, m := range bj.EndToEnd {
		e2e, units[m.Name] = append(e2e, m.Name), m.Unit
	}
	for _, m := range bj.PerLayer {
		layers, units[m.Name] = append(layers, m.Name), m.Unit
	}
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layers, perLayer) || !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, end-to-end %v, per-layer %v; ladperf has %v, %v, %v",
			names, e2e, layers, workloadNames, endToEnd, perLayer)
	}

	start := time.Now()
	for _, workload := range workloadNames {
		cfg := smokeConfig(t, workload)
		cfg.trace = true
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", workload, res.failed, res.attempted)
		}
		if m, _ := res.get("error_rate"); m.value != 0 {
			t.Errorf("%s: error_rate %v", workload, m.value)
		}
		for _, names := range [][]string{endToEnd, perLayer} {
			if _, err := summary(res, names); err != nil {
				t.Error(err)
			}
			for _, name := range names {
				if m, ok := res.get(name); ok && m.unit != units[name] {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", workload, name, m.unit, units[name])
				}
			}
		}
		hit, _ := res.get("core.expcache_hit_ratio")
		switch workload {
		case "batch-hot":
			if hit.value < 0.95 {
				t.Errorf("batch-hot: expectation-cache hit ratio %v, want >= 0.95", hit.value)
			}
		case "single-cold":
			if hit.value > 0.05 {
				t.Errorf("single-cold: expectation-cache hit ratio %v, want <= 0.05", hit.value)
			}
		}
	}
	t.Logf("four workloads in %v", time.Since(start).Round(time.Millisecond))
}
