package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/serve"
)

// TestWireCompatibilityWithServer locks the client's self-contained wire
// types to the server's: the same logical spec must marshal to the same
// JSON on both sides (the server decodes with DisallowUnknownFields, so
// any drift would break requests loudly — this test breaks them at test
// time instead).
func TestWireCompatibilityWithServer(t *testing.T) {
	cs := PaperSpec().WithMetric("probability").WithTrials(123).WithPercentile(97.5).WithSeed(42)
	ss := serve.DetectorSpec{
		Deployment: deploy.PaperConfig(),
		Metric:     "probability",
		Train:      serve.TrainSpec{Trials: 123, Percentile: 97.5, Seed: 42, KeepInField: true},
	}
	got, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ss)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("client spec JSON drifted from server:\nclient: %s\nserver: %s", got, want)
	}

	// The client spec survives the server's strict decoder and validates.
	var decoded serve.DetectorSpec
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("server cannot decode client spec: %v", err)
	}
	if err := decoded.Validate(); err != nil {
		t.Fatalf("decoded spec invalid: %v", err)
	}
	if decoded.Deployment.Field != geom.NewRect(geom.Pt(0, 0), geom.Pt(1000, 1000)) {
		t.Errorf("field drifted: %+v", decoded.Deployment.Field)
	}

	// The detector status JSON decodes into the client type with every
	// field intact.
	th := 3.25
	serverSide := map[string]any{
		"id": "dabc", "state": "ready",
		"spec":      ss,
		"threshold": th, "percentile": 97.5,
		"train": map[string]any{"seconds": 1.5, "benign_scores": 123},
	}
	raw, err := json.Marshal(serverSide)
	if err != nil {
		t.Fatal(err)
	}
	var d Detector
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.ID != "dabc" || d.State != StateReady || d.Threshold == nil || *d.Threshold != th ||
		d.Train == nil || d.Train.BenignScores != 123 || d.Spec.Train.Trials != 123 {
		t.Errorf("status decoded incompletely: %+v", d)
	}
}

// Test202RetryPolling drives Check against a scripted fake server that
// answers 202 (with a retry hint) twice before serving the verdict: the
// client must absorb the 202s, honor the body hint, and return the
// verdict.
func Test202RetryPolling(t *testing.T) {
	var calls atomic.Int32
	verdict := Verdict{Score: 1.5, Threshold: 2.0, Alarm: false}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/detectors/d123/check" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if n := calls.Add(1); n <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
				"error": map[string]any{
					"code":           CodeDetectorTraining,
					"message":        "detector d123 is training",
					"retry_after_ms": 5,
				},
			})
			return
		}
		json.NewEncoder(w).Encode(verdict) //nolint:errcheck
	}))
	defer ts.Close()

	c := New(ts.URL, WithBackoff(time.Millisecond, 10*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	v, err := c.Check(ctx, "d123", []int{1, 2, 3}, Point{X: 1, Y: 2})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if v != verdict {
		t.Errorf("verdict %+v, want %+v", v, verdict)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (202, 202, 200)", got)
	}
	// The 5 ms body hints were honored rather than the 1 s Retry-After
	// header (the body hint is finer-grained).
	if took := time.Since(start); took < 10*time.Millisecond || took > time.Second {
		t.Errorf("polling took %s; want ~2×5ms hints, not header seconds", took)
	}
}

// TestCheckBatchCountMismatch: a batch answer with fewer verdicts than
// items is an error, not a short slice that CheckBatchChunked would
// splice in and so shift every later verdict onto the wrong item.
func TestCheckBatchCountMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/detectors/d1/check/batch" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"results": []Verdict{{Score: 1, Threshold: 2}},
		})
	}))
	defer ts.Close()
	c := New(ts.URL)
	items := []Item{{Observation: []int{1}}, {Observation: []int{2}}}
	if vs, err := c.CheckBatch(context.Background(), "d1", items); err == nil {
		t.Errorf("CheckBatch returned %d verdicts for 2 items and no error", len(vs))
	}
	if vs, err := c.CheckBatchChunked(context.Background(), "d1", append(items, items...), 2); err == nil {
		t.Errorf("CheckBatchChunked returned %d verdicts for 4 items and no error", len(vs))
	}
}

// Test202RetryGivesUpOnContext: a perpetually-training resource must
// surface the context error, not loop forever.
func Test202RetryGivesUpOnContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"error": map[string]any{"code": CodeDetectorTraining, "message": "still training", "retry_after_ms": 5},
		})
	}))
	defer ts.Close()
	c := New(ts.URL, WithBackoff(time.Millisecond, 5*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Check(ctx, "d1", []int{1}, Point{})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestAPIErrorTyping: non-2xx responses surface as *APIError with the
// code and HTTP status preserved.
func TestAPIErrorTyping(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"error": map[string]any{"code": CodeNotFound, "message": "no detector \"dx\""},
		})
	}))
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Get(context.Background(), "dx")
	var api *APIError
	if !errors.As(err, &api) {
		t.Fatalf("err %T not *APIError", err)
	}
	if api.Code != CodeNotFound || api.HTTPStatus != http.StatusNotFound {
		t.Errorf("api error = %+v", api)
	}
}

// TestTokenAttached: WithToken puts the bearer token on every request.
func TestTokenAttached(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Authorization"))
		json.NewEncoder(w).Encode(Detector{ID: "d1", State: StateReady}) //nolint:errcheck
	}))
	defer ts.Close()
	c := New(ts.URL, WithToken("tok123"))
	if _, err := c.Get(context.Background(), "d1"); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "Bearer tok123" {
		t.Errorf("Authorization = %q", got.Load())
	}
}

// TestMetricValue pins the scrape helper's exact-name and labeled
// matching.
func TestMetricValue(t *testing.T) {
	text := `# HELP ladd_train_seconds Wall time.
ladd_train_seconds_sum 3.5
ladd_train_seconds_count 7
ladd_detectors{state="ready"} 2
ladd_detectors{state="failed"} 0
ladd_observations_scored_total 41
`
	if v, ok := MetricValue(text, "ladd_train_seconds_count", ""); !ok || v != 7 {
		t.Errorf("count = %v %v", v, ok)
	}
	if v, ok := MetricValue(text, "ladd_train_seconds", ""); ok {
		t.Errorf("bare ladd_train_seconds matched %v; must not read _sum/_count lines", v)
	}
	if v, ok := MetricValue(text, "ladd_detectors", `state="ready"`); !ok || v != 2 {
		t.Errorf("ready gauge = %v %v", v, ok)
	}
	if v, ok := MetricValue(text, "ladd_observations_scored_total", ""); !ok || v != 41 {
		t.Errorf("scored = %v %v", v, ok)
	}
}

// tinyServeSpec is a milliseconds-to-train server spec; tinyClientSpec
// is its client-side twin (same key server-side).
func tinyServeSpec() serve.DetectorSpec {
	cfg := deploy.PaperConfig()
	cfg.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(300, 300))
	cfg.GroupsX, cfg.GroupsY = 3, 3
	cfg.GroupSize = 40
	return serve.DetectorSpec{
		Deployment: cfg,
		Metric:     "diff",
		Train:      serve.TrainSpec{Trials: 80, Percentile: 99, Seed: 5, KeepInField: true},
	}
}

func tinyClientSpec() DetectorSpec {
	return DetectorSpec{
		Deployment: Deployment{
			Field:     Rect{Min: RectCorner{0, 0}, Max: RectCorner{300, 300}},
			GroupsX:   3,
			GroupsY:   3,
			GroupSize: 40,
			Sigma:     50,
			Range:     50,
			Layout:    LayoutGrid,
		},
		Metric: "diff",
		Train:  TrainSpec{Trials: 80, Percentile: 99, Seed: 6, KeepInField: true},
	}
}

// TestFullLifecycleAgainstRealServer drives the typed client through a
// real serve.Server: register → wait ready → check (bit-identical to
// the server-side detector) → batch/chunk → correct → rethreshold →
// delete.
// trainCount scrapes the server's completed-training count.
func trainCount(ctx context.Context, t *testing.T, c *Client) float64 {
	t.Helper()
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := MetricValue(text, "ladd_train_seconds_count", "")
	if !ok {
		t.Fatal("no ladd_train_seconds_count in /metrics")
	}
	return v
}

func TestFullLifecycleAgainstRealServer(t *testing.T) {
	srv, err := serve.NewServer(serve.ServerConfig{Default: tinyServeSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := New(ts.URL, WithBackoff(time.Millisecond, 50*time.Millisecond))

	det, err := c.RegisterAndWait(ctx, tinyClientSpec())
	if err != nil {
		t.Fatalf("register+wait: %v", err)
	}
	if !det.Ready() || det.Threshold == nil {
		t.Fatalf("not ready after wait: %+v", det)
	}

	// The client-registered resource is the same detector the pool
	// resolves for the equivalent server-side spec: same id, threshold,
	// verdicts.
	sspec := tinyServeSpec()
	sspec.Train.Seed = 6
	if det.ID != sspec.ID() {
		t.Errorf("client id %q != server id %q", det.ID, sspec.ID())
	}
	direct, _, ok := srv.Pool().Detector(sspec.ID())
	if !ok {
		t.Fatal("pool has no ready detector under the client's id")
	}
	if direct.Threshold() != *det.Threshold {
		t.Errorf("client threshold %v != pool %v", *det.Threshold, direct.Threshold())
	}

	obs := make([]int, direct.Model().NumGroups())
	obs[4] = 3
	v, err := c.Check(ctx, det.ID, obs, Point{X: 150, Y: 150})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	want := direct.Check(obs, geom.Pt(150, 150))
	if v.Score != want.Score || v.Threshold != want.Threshold || v.Alarm != want.Alarm {
		t.Errorf("client verdict %+v != direct %+v", v, want)
	}

	// Batch + chunk helper produce the same verdicts in order.
	items := []Item{
		{Observation: obs, Location: Point{X: 150, Y: 150}},
		{Observation: obs, Location: Point{X: 50, Y: 250}},
		{Observation: obs, Location: Point{X: 250, Y: 50}},
	}
	batch, err := c.CheckBatch(ctx, det.ID, items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	chunked, err := c.CheckBatchChunked(ctx, det.ID, items, 2)
	if err != nil {
		t.Fatalf("chunked: %v", err)
	}
	if len(batch) != 3 || len(chunked) != 3 {
		t.Fatalf("batch sizes %d/%d", len(batch), len(chunked))
	}
	for i := range batch {
		if batch[i] != chunked[i] {
			t.Errorf("chunked[%d] %+v != batch %+v", i, chunked[i], batch[i])
		}
	}

	// Correction round-trips.
	fix, err := c.Correct(ctx, det.ID, obs)
	if err != nil {
		t.Fatalf("correct: %v", err)
	}
	if fix.Location == (Point{}) {
		t.Error("correction returned the zero point")
	}

	// Rethreshold moves the operating point without retraining.
	trainsBefore := trainCount(ctx, t, c)
	re, err := c.Rethreshold(ctx, det.ID, 50)
	if err != nil {
		t.Fatalf("rethreshold: %v", err)
	}
	if re.Threshold == nil || *re.Threshold == *det.Threshold {
		t.Errorf("rethreshold did not move the threshold: %+v", re)
	}
	if re.Percentile != 50 {
		t.Errorf("percentile = %g, want 50", re.Percentile)
	}
	if trainsAfter := trainCount(ctx, t, c); trainsAfter != trainsBefore {
		t.Errorf("rethreshold retrained: %g → %g", trainsBefore, trainsAfter)
	}

	// Delete, then 404.
	if err := c.Delete(ctx, det.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	_, err = c.Get(ctx, det.ID)
	var api *APIError
	if !errors.As(err, &api) || api.Code != CodeNotFound {
		t.Errorf("get after delete: %v, want not_found", err)
	}
}
