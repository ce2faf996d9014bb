package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/mathx"
)

// slowSeed marks specs the fake trainer must block on until released.
const slowSeed = 7777

// newLifecycleServer wires a server over a pool whose trainer blocks on
// specs with Train.Seed == slowSeed until release is closed; everything
// else trains for real (tiny spec, milliseconds).
func newLifecycleServer(t *testing.T, cfg ServerConfig) (*httptest.Server, *Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		if spec.Train.Seed == slowSeed {
			<-release
		}
		return trainDetector(spec, workers, nil)
	})
	srv, err := NewServer(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		// Unblock any still-parked flight so its goroutine can exit.
		select {
		case <-release:
		default:
			close(release)
		}
		ts.Close()
	})
	return ts, srv, release
}

// doJSON issues a request with an optional JSON body and bearer token,
// returning the response and its body.
func doJSON(t *testing.T, method, url string, body any, token string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
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

func decodeDetector(t *testing.T, body []byte) DetectorJSON {
	t.Helper()
	var d DetectorJSON
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("detector body %q: %v", body, err)
	}
	return d
}

func decodeAPIError(t *testing.T, body []byte) *APIError {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("error body %q not a structured error", body)
	}
	return env.Error
}

// TestV2LifecycleAsyncTraining is the tentpole's acceptance path:
// registration returns immediately with a non-ready state while training
// runs in the background, checks against the in-flight resource answer
// 202 with a Retry-After hint, and once the flight finishes the same id
// serves verdicts.
func TestV2LifecycleAsyncTraining(t *testing.T) {
	ts, srv, release := newLifecycleServer(t, ServerConfig{Default: tinySpec()})

	slow := tinySpec()
	slow.Train.Seed = slowSeed

	start := time.Now()
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: slow}, "")
	if took := time.Since(start); took > time.Second {
		t.Errorf("register blocked for %s; must return without waiting for training", took)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d: %s", resp.StatusCode, body)
	}
	reg := decodeDetector(t, body)
	if reg.ID != slow.ID() {
		t.Errorf("registered id %q, want %q", reg.ID, slow.ID())
	}
	// The training-concurrency semaphore was idle, so the slot is claimed
	// synchronously: the response already reports training, not pending.
	if reg.State != string(StateTraining) {
		t.Errorf("register state %q, want %q", reg.State, StateTraining)
	}
	if reg.Threshold != nil {
		t.Error("in-flight resource must not advertise a threshold")
	}

	// Checks against the in-flight resource: 202, structured code,
	// Retry-After both as header and in the body.
	it := BatchItemJSON{Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+reg.ID+"/check", it, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("check while training: status %d, want 202 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("202 response missing Retry-After header")
	}
	apiErr := decodeAPIError(t, body)
	if apiErr.Code != CodeDetectorTraining {
		t.Errorf("202 code %q, want %q", apiErr.Code, CodeDetectorTraining)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Errorf("202 retry_after_ms = %d, want > 0", apiErr.RetryAfterMS)
	}

	// Rethreshold against the in-flight resource is also "come back
	// later" — the job is alive, not failed.
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+reg.ID+"/rethreshold", RethresholdRequest{Percentile: 90}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rethreshold while training: status %d, want 202 (%s)", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Code != CodeDetectorTraining || e.RetryAfterMS <= 0 {
		t.Errorf("rethreshold while training: %+v, want detector_training with retry hint", e)
	}

	// Registering the same spec again joins the flight: 200, same id.
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: slow}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register status %d, want 200 (%s)", resp.StatusCode, body)
	}
	if again := decodeDetector(t, body); again.ID != reg.ID {
		t.Errorf("re-register id %q != %q", again.ID, reg.ID)
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	var ready DetectorJSON
	for {
		resp, body = doJSON(t, "GET", ts.URL+"/v2/detectors/"+reg.ID, nil, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		ready = decodeDetector(t, body)
		if ready.State == string(StateReady) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resource never became ready (last state %s)", ready.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ready.Threshold == nil || ready.Train == nil || ready.Train.BenignScores != slow.Train.Trials {
		t.Errorf("ready status incomplete: %+v", ready)
	}

	// Now the same check verb serves a verdict, bit-identical to the
	// detector behind the pool.
	det, _, ok := srv.Pool().Detector(reg.ID)
	if !ok {
		t.Fatal("pool lost the ready detector")
	}
	obs := sampleItems(det, 1, 77)[0]
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+reg.ID+"/check", obs, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ready check status %d: %s", resp.StatusCode, body)
	}
	var got CheckResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := det.Check(obs.Observation, obs.Location.Point())
	if got.Score != want.Score || got.Threshold != want.Threshold || got.Alarm != want.Alarm {
		t.Errorf("v2 verdict %+v != direct %+v", got, want)
	}
}

func TestV2EvictWhileTraining(t *testing.T) {
	ts, srv, release := newLifecycleServer(t, ServerConfig{Default: tinySpec()})
	slow := tinySpec()
	slow.Train.Seed = slowSeed
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: slow}, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	id := decodeDetector(t, body).ID

	resp, _ = doJSON(t, "DELETE", ts.URL+"/v2/detectors/"+id, nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete mid-training: status %d", resp.StatusCode)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/v2/detectors/"+id, nil, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d (%s)", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Code != CodeNotFound {
		t.Errorf("code %q, want %q", e.Code, CodeNotFound)
	}

	// The detached flight finishes and is discarded: the id stays gone
	// and the resource does not resurface in the list.
	close(release)
	time.Sleep(20 * time.Millisecond)
	resp, body = doJSON(t, "GET", ts.URL+"/v2/detectors/"+id, nil, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted id resurfaced: status %d (%s)", resp.StatusCode, body)
	}
	for _, st := range srv.Pool().List() {
		if st.ID == id {
			t.Errorf("evicted resource %s still listed", id)
		}
	}
}

func TestV2FailedStateMachine(t *testing.T) {
	var failNext atomic.Bool
	failNext.Store(true)
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		if spec.Train.Seed == 999 && failNext.Load() {
			return nil, nil, fmt.Errorf("synthetic trainer failure")
		}
		return trainDetector(spec, workers, nil)
	})
	srv, err := NewServer(ServerConfig{Default: tinySpec()}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := tinySpec()
	bad.Train.Seed = 999
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: bad}, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	id := decodeDetector(t, body).ID

	// Wait out the flight; the resource must land in failed with the
	// trainer's message.
	deadline := time.Now().Add(5 * time.Second)
	var st DetectorJSON
	for {
		_, body = doJSON(t, "GET", ts.URL+"/v2/detectors/"+id, nil, "")
		st = decodeDetector(t, body)
		if st.State == string(StateFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never failed (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(st.Error, "synthetic trainer failure") {
		t.Errorf("failed status error %q missing trainer message", st.Error)
	}

	// Checks against a failed resource: 409 detector_failed.
	it := BatchItemJSON{Observation: make([]int, 9), Location: PointJSON{X: 1, Y: 1}}
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/check", it, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("check on failed: status %d, want 409 (%s)", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Code != CodeDetectorFailed {
		t.Errorf("code %q, want %q", e.Code, CodeDetectorFailed)
	}

	// Re-registering retries under the same id and can succeed.
	failNext.Store(false)
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: bad}, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-register after failure: %d %s", resp.StatusCode, body)
	}
	if got := decodeDetector(t, body).ID; got != id {
		t.Errorf("retry changed id: %q != %q", got, id)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, body = doJSON(t, "GET", ts.URL+"/v2/detectors/"+id, nil, "")
		if decodeDetector(t, body).State == string(StateReady) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retried resource never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestV1V2GoldenVerdicts is the compatibility golden: the same spec and
// observations produce bit-identical verdicts through the v1 shim and
// the v2 resource API — both resolve to the same pooled detector.
func TestV1V2GoldenVerdicts(t *testing.T) {
	ts, srv, _ := newLifecycleServer(t, ServerConfig{Default: tinySpec(), MaxBatch: 128})

	spec := tinySpec()
	spec.Metric = "probability"

	// v2: register and wait ready.
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: spec}, "")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	id := decodeDetector(t, body).ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body = doJSON(t, "GET", ts.URL+"/v2/detectors/"+id, nil, "")
		if decodeDetector(t, body).State == string(StateReady) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never ready")
		}
		time.Sleep(2 * time.Millisecond)
	}

	det, err := srv.Pool().Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	items := sampleItems(det, 24, 123)

	// Single checks, one by one.
	for i, it := range items[:6] {
		_, b1 := doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{Detector: &spec, Observation: it.Observation, Location: it.Location}, "")
		_, b2 := doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/check", it, "")
		var v1, v2 CheckResponse
		if err := json.Unmarshal(b1, &v1); err != nil {
			t.Fatalf("item %d v1: %v (%s)", i, err, b1)
		}
		if err := json.Unmarshal(b2, &v2); err != nil {
			t.Fatalf("item %d v2: %v (%s)", i, err, b2)
		}
		if v1 != v2 {
			t.Errorf("item %d: v1 %+v != v2 %+v", i, v1, v2)
		}
	}

	// Batch.
	_, b1 := doJSON(t, "POST", ts.URL+"/v1/check/batch", BatchRequest{Detector: &spec, Items: items}, "")
	_, b2 := doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/check/batch", BatchRequest{Items: items}, "")
	var r1, r2 BatchResponse
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatalf("v1 batch: %v (%s)", err, b1)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatalf("v2 batch: %v (%s)", err, b2)
	}
	if len(r1.Results) != len(items) || len(r2.Results) != len(items) {
		t.Fatalf("batch sizes %d/%d, want %d", len(r1.Results), len(r2.Results), len(items))
	}
	for i := range r1.Results {
		if r1.Results[i] != r2.Results[i] {
			t.Errorf("batch item %d: v1 %+v != v2 %+v", i, r1.Results[i], r2.Results[i])
		}
	}
}

func TestV2RethresholdWithoutRetrain(t *testing.T) {
	ts, srv, _ := newLifecycleServer(t, ServerConfig{Default: tinySpec()})
	spec := tinySpec()

	// The default spec is already trained by warmup; its resource id is
	// addressable. Reproduce the expected cuts from an offline training
	// run with the same config (scores are worker-count invariant).
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	_, scores, err := core.Train(model, core.MetricByName(spec.Metric), spec.Train.TrainConfig())
	if err != nil {
		t.Fatal(err)
	}

	id := spec.ID()
	trainsBefore, _, _, _ := srv.Pool().TrainStats()
	jobsBefore, _, _ := srv.Pool().JobStats()

	for _, tau := range []float64{50, 90, 99} {
		resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/rethreshold", RethresholdRequest{Percentile: tau}, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rethreshold(%g): status %d: %s", tau, resp.StatusCode, body)
		}
		st := decodeDetector(t, body)
		want := mathx.Percentile(scores, tau)
		if st.Threshold == nil || *st.Threshold != want {
			t.Errorf("rethreshold(%g) threshold = %v, want %v", tau, st.Threshold, want)
		}
		if st.Percentile != tau {
			t.Errorf("rethreshold(%g) percentile = %g", tau, st.Percentile)
		}
		// The new operating point is live on the serving path.
		det, _, _ := srv.Pool().Detector(id)
		if det.Threshold() != want {
			t.Errorf("detector threshold %v not updated to %v", det.Threshold(), want)
		}
	}

	// No retraining happened: train and job counters are unmoved.
	trainsAfter, _, _, _ := srv.Pool().TrainStats()
	jobsAfter, _, _ := srv.Pool().JobStats()
	if trainsAfter != trainsBefore || jobsAfter != jobsBefore {
		t.Errorf("rethreshold retrained: trains %d→%d, jobs %d→%d",
			trainsBefore, trainsAfter, jobsBefore, jobsAfter)
	}

	// Out-of-range τ is a 400 with the typed code.
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/rethreshold", RethresholdRequest{Percentile: 120}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rethreshold(120): status %d (%s)", resp.StatusCode, body)
	}
	if e := decodeAPIError(t, body); e.Code != CodeInvalidArgument {
		t.Errorf("code %q, want %q", e.Code, CodeInvalidArgument)
	}
}

func TestV2CorrectRoundTrip(t *testing.T) {
	ts, srv, _ := newLifecycleServer(t, ServerConfig{Default: tinySpec()})
	spec := tinySpec()
	id := spec.ID()
	det, err := srv.Pool().Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	it := sampleItems(det, 1, 31)[0]

	// Plain correction must equal the direct corrector's estimate.
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/correct", CorrectRequest{Observation: it.Observation}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correct: status %d: %s", resp.StatusCode, body)
	}
	var got CorrectResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := core.NewCorrector(det.Model()).Correct(it.Observation)
	if err != nil {
		t.Fatal(err)
	}
	if got.Location.X != want.X || got.Location.Y != want.Y {
		t.Errorf("served correction (%v,%v) != direct (%v,%v)", got.Location.X, got.Location.Y, want.X, want.Y)
	}
	if got.Excluded != nil {
		t.Errorf("plain correction reported exclusions: %v", got.Excluded)
	}

	// Trimmed correction with custom knobs matches a matching corrector.
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/correct",
		CorrectRequest{Observation: it.Observation, Trimmed: true, TrimFraction: 0.2, Rounds: 2}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correct trimmed: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	corr := core.NewCorrector(det.Model())
	corr.TrimFraction = 0.2
	corr.Rounds = 2
	wantP, wantMask, err := corr.CorrectTrimmed(it.Observation)
	if err != nil {
		t.Fatal(err)
	}
	if got.Location.X != wantP.X || got.Location.Y != wantP.Y {
		t.Errorf("served trimmed (%v,%v) != direct (%v,%v)", got.Location.X, got.Location.Y, wantP.X, wantP.Y)
	}
	var wantIdx []int
	for i, ex := range wantMask {
		if ex {
			wantIdx = append(wantIdx, i)
		}
	}
	if fmt.Sprint(got.Excluded) != fmt.Sprint(wantIdx) {
		t.Errorf("excluded %v != %v", got.Excluded, wantIdx)
	}

	// An all-silent observation has no MLE: invalid_argument, not a 500.
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/correct",
		CorrectRequest{Observation: make([]int, det.Model().NumGroups())}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("silent correct: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

func TestV2AuthGatesMutatingEndpoints(t *testing.T) {
	const token = "sekrit-operator-token"
	ts, _, _ := newLifecycleServer(t, ServerConfig{Default: tinySpec(), APIToken: token})
	spec := tinySpec()
	id := spec.ID()

	other := tinySpec()
	other.Train.Seed = 9

	// Mutating endpoints: missing token 401, wrong token 403, right
	// token passes.
	mutations := []struct {
		name, method, path string
		body               any
	}{
		{"register", "POST", "/v2/detectors", RegisterRequest{Spec: other}},
		{"rethreshold", "POST", "/v2/detectors/" + id + "/rethreshold", RethresholdRequest{Percentile: 90}},
		{"delete", "DELETE", "/v2/detectors/" + spec.ID(), nil},
	}
	for _, mcase := range mutations {
		resp, body := doJSON(t, mcase.method, ts.URL+mcase.path, mcase.body, "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s without token: status %d, want 401 (%s)", mcase.name, resp.StatusCode, body)
		} else if e := decodeAPIError(t, body); e.Code != CodeUnauthenticated {
			t.Errorf("%s without token: code %q", mcase.name, e.Code)
		}
		resp, body = doJSON(t, mcase.method, ts.URL+mcase.path, mcase.body, "wrong-token")
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s wrong token: status %d, want 403 (%s)", mcase.name, resp.StatusCode, body)
		} else if e := decodeAPIError(t, body); e.Code != CodePermissionDenied {
			t.Errorf("%s wrong token: code %q", mcase.name, e.Code)
		}
	}

	// Reads and checks stay open.
	det := func() BatchItemJSON {
		resp, body := doJSON(t, "GET", ts.URL+"/v2/detectors/"+id, nil, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unauthenticated GET status: status %d (%s)", resp.StatusCode, body)
		}
		return BatchItemJSON{Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}
	}()
	resp, _ := doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/check", det, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unauthenticated check: status %d, want 200 (checks stay open)", resp.StatusCode)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unauthenticated v1 check: status %d, want 200", resp.StatusCode)
	}
	// An inline v1 spec that is already resident (the default) is a plain
	// check — open. A first-sight inline spec would register (and train)
	// a new detector, which is exactly what the token gates: 401 through
	// the shim too, so v1 cannot launder unauthenticated registrations.
	resident := tinySpec()
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{
		Detector: &resident, Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unauthenticated v1 check with resident spec: status %d, want 200", resp.StatusCode)
	}
	fresh := tinySpec()
	fresh.Train.Seed = 4242
	resp, body := doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{
		Detector: &fresh, Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated v1 check with first-sight spec: status %d, want 401 (%s)", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{
		Detector: &fresh, Observation: make([]int, 9), Location: PointJSON{X: 150, Y: 150}}, token)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authed v1 check with first-sight spec: status %d, want 200", resp.StatusCode)
	}

	// With the token, the full mutating flow works.
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: other}, token)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("authed register: status %d (%s)", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+id+"/rethreshold", RethresholdRequest{Percentile: 90}, token)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("authed rethreshold: status %d (%s)", resp.StatusCode, body)
	}
}

// TestHostileDeploymentSpecsRejected: specs whose lengths would crash or
// wedge the model build (a huge Sigma or Range, a field at ±1e308) are
// answered 400 invalid_argument on both the v2 register path and the
// v1 inline-spec path, and the daemon keeps serving afterwards.
func TestHostileDeploymentSpecsRejected(t *testing.T) {
	ts, _, _ := newLifecycleServer(t, ServerConfig{Default: tinySpec()})
	hostile := map[string]func(*deploy.Config){
		"sigma 1e300":      func(c *deploy.Config) { c.Sigma = 1e300 },
		"range 1e160":      func(c *deploy.Config) { c.Range = 1e160 },
		"field max 1e308":  func(c *deploy.Config) { c.Field.Max.X, c.Field.Max.Y = 1e308, 1e308 },
		"field min -1e308": func(c *deploy.Config) { c.Field.Min.X = -1e308 },
	}
	obs := make([]int, tinySpec().Deployment.GroupsX*tinySpec().Deployment.GroupsY)
	obs[0] = 1
	for name, mut := range hostile {
		spec := tinySpec()
		mut(&spec.Deployment)
		resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: spec}, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: register status %d, want 400: %s", name, resp.StatusCode, body)
		} else if e := decodeAPIError(t, body); e.Code != CodeInvalidArgument {
			t.Errorf("%s: register code %q, want %q", name, e.Code, CodeInvalidArgument)
		}
		resp, body = doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{Detector: &spec, Observation: obs}, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: v1 inline check status %d, want 400: %s", name, resp.StatusCode, body)
		} else if e := decodeAPIError(t, body); e.Code != CodeInvalidArgument {
			t.Errorf("%s: v1 inline check code %q, want %q", name, e.Code, CodeInvalidArgument)
		}
	}
	if resp, body := doJSON(t, "GET", ts.URL+"/healthz", nil, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after hostile specs: %d %s", resp.StatusCode, body)
	}
}

// TestV2ErrorModelMapping pins the code↔status table on the wire: spec
// validation problems are 400 invalid_argument (not 500 strings),
// admission pressure is 429 pool_full, unknown ids are 404.
func TestV2ErrorModelMapping(t *testing.T) {
	pool := NewDetectorPool(2)
	srv, err := NewServer(ServerConfig{Default: tinySpec()}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Invalid spec: 400 invalid_argument.
	bad := tinySpec()
	bad.Metric = "nope"
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: bad}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad metric: status %d (%s)", resp.StatusCode, body)
	} else if e := decodeAPIError(t, body); e.Code != CodeInvalidArgument {
		t.Errorf("bad metric: code %q", e.Code)
	}

	// Unknown id: 404 not_found on every per-detector verb.
	for _, path := range []string{"/v2/detectors/nope", "/v2/detectors/nope/check", "/v2/detectors/nope/rethreshold"} {
		method := "GET"
		var reqBody any
		if strings.HasSuffix(path, "check") {
			method, reqBody = "POST", BatchItemJSON{Observation: make([]int, 9)}
		} else if strings.HasSuffix(path, "rethreshold") {
			method, reqBody = "POST", RethresholdRequest{Percentile: 50}
		}
		resp, body := doJSON(t, method, ts.URL+path, reqBody, "")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 (%s)", method, path, resp.StatusCode, body)
		} else if e := decodeAPIError(t, body); e.Code != CodeNotFound {
			t.Errorf("%s: code %q", path, e.Code)
		}
	}

	// Pool at its live limit: 429 pool_full — and pool-full rejections
	// must not be misfiled as training failures.
	second := tinySpec()
	second.Train.Seed = 2
	if _, err := pool.Get(second); err != nil {
		t.Fatal(err)
	}
	third := tinySpec()
	third.Train.Seed = 3
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: third}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("pool full: status %d, want 429 (%s)", resp.StatusCode, body)
	} else if e := decodeAPIError(t, body); e.Code != CodePoolFull {
		t.Errorf("pool full: code %q", e.Code)
	}
	if _, _, _, failures := pool.Stats(); failures != 0 {
		t.Errorf("pool-full rejection counted as %d training failures", failures)
	}

	// v1 shares the table: a pool-full per-request spec is the same
	// typed 429 through the shim.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/check", CheckRequest{
		Detector: &third, Observation: make([]int, 9), Location: PointJSON{X: 1, Y: 1},
	}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("v1 pool full: status %d, want 429 (%s)", resp.StatusCode, body)
	} else if e := decodeAPIError(t, body); e.Code != CodePoolFull {
		t.Errorf("v1 pool full: code %q", e.Code)
	}
}

// TestDeleteReturnsExpCacheBudget: evicting a detector must credit its
// expectation-cache reservations back to the pool-wide byte budget —
// otherwise register/check/delete churn pins the budget until every
// live detector is forced onto the uncached path.
func TestDeleteReturnsExpCacheBudget(t *testing.T) {
	srv, err := NewServer(ServerConfig{Default: tinySpec(), ExpCacheBudgetBytes: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	spec.Train.Seed = 31
	det, err := srv.Pool().Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cache: distinct claimed locations, each hit twice so PMF
	// charges land too.
	for _, it := range sampleItems(det, 32, 55) {
		det.CheckPooled(it.Observation, it.Location.Point())
		det.CheckPooled(it.Observation, it.Location.Point())
	}
	_, inUseBefore := srv.Pool().ExpCacheBudgetStats()
	if inUseBefore == 0 {
		t.Fatal("cache traffic reserved no budget bytes; test is vacuous")
	}
	if !srv.Pool().Delete(spec.ID()) {
		t.Fatal("delete failed")
	}
	// Only the default detector's reservations may remain; the deleted
	// detector's must all be credited back even though the *Detector is
	// still referenced (in-flight semantics).
	defaultDet, err := srv.Pool().Get(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	defaultSize, _, _ := defaultDet.ExpCacheStats()
	_, inUseAfter := srv.Pool().ExpCacheBudgetStats()
	if inUseAfter >= inUseBefore {
		t.Errorf("delete returned no budget: in-use %d -> %d", inUseBefore, inUseAfter)
	}
	if defaultSize == 0 && inUseAfter != 0 {
		t.Errorf("all caches empty but %d budget bytes still reserved", inUseAfter)
	}
	// Post-retirement traffic on the still-referenced detector must not
	// re-charge the budget.
	for _, it := range sampleItems(det, 8, 99) {
		det.CheckPooled(it.Observation, it.Location.Point())
	}
	if _, inUseFinal := srv.Pool().ExpCacheBudgetStats(); inUseFinal > inUseAfter {
		t.Errorf("retired cache charged the budget again: %d -> %d", inUseAfter, inUseFinal)
	}
}

// TestFailedRearmRespectsLimit: re-arming a failed resource makes it
// live, so it must fit the live-entry limit like any fresh admission.
func TestFailedRearmRespectsLimit(t *testing.T) {
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		if spec.Train.Seed == 999 {
			return nil, nil, fmt.Errorf("boom")
		}
		return trainDetector(spec, workers, nil)
	})
	pool.limit = 1
	bad := tinySpec()
	bad.Train.Seed = 999
	if _, err := pool.Get(bad); err == nil {
		t.Fatal("bad spec should fail")
	}
	// Fill the single live slot.
	good := tinySpec()
	if _, err := pool.Get(good); err != nil {
		t.Fatal(err)
	}
	// Re-registering the failed spec would make a second live entry:
	// refused, and the failed resource is untouched.
	if _, _, err := pool.Register(bad); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("re-arm over limit: err = %v, want ErrPoolFull", err)
	}
	if st, ok := pool.Lookup(bad.ID()); !ok || st.State != StateFailed {
		t.Errorf("refused re-arm changed the resource: %+v %v", st, ok)
	}
}

func TestV2ListAndStateGauges(t *testing.T) {
	ts, srv, release := newLifecycleServer(t, ServerConfig{Default: tinySpec()})
	slow := tinySpec()
	slow.Train.Seed = slowSeed
	if _, _, err := srv.Pool().Register(slow); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, "GET", ts.URL+"/v2/detectors", nil, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Detectors) != 2 {
		t.Fatalf("list has %d resources, want 2 (default + slow)", len(list.Detectors))
	}

	_, body = doJSON(t, "GET", ts.URL+"/metrics", nil, "")
	text := string(body)
	for _, want := range []string{
		`ladd_detectors{state="ready"} 1`,
		`ladd_detectors{state="training"} 1`,
		`ladd_detectors{state="pending"} 0`,
		`ladd_detectors{state="failed"} 0`,
		"ladd_train_jobs_started_total 2",
		`ladd_train_jobs_completed_total{outcome="ok"} 1`,
		`ladd_train_jobs_completed_total{outcome="failed"} 0`,
		"ladd_corrections_total 0",
		"ladd_rethresholds_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	close(release)
}
