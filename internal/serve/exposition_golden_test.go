package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// goldenExpositionPath holds the /metrics exposition recorded for the
// request sequence in driveGoldenSequence: every HELP and TYPE line and
// every series identifier, with its value where the value is
// deterministic and "*" where it depends on timing.
const goldenExpositionPath = "testdata/exposition.golden"

// driveGoldenSequence boots a server over a pool whose trainer fails
// specs with seed 666, runs a fixed request sequence (register, check,
// check/batch, correct, rethreshold, one failed spec, 404/409 errors),
// and returns the raw /metrics text.
func driveGoldenSequence(t *testing.T) string {
	t.Helper()
	pool := newDetectorPoolWithTrainer(func(spec DetectorSpec, workers int, _ <-chan struct{}) (*core.Detector, []float64, error) {
		if spec.Train.Seed == 666 {
			return nil, nil, fmt.Errorf("synthetic failure")
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

	// waitFor polls the pool directly, so the wait leaves no request
	// counts behind.
	waitFor := func(id string, want DetectorState) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, ok := pool.Lookup(id)
			if ok && st.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %s (state %s)", id, want, st.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	expect := func(resp *http.Response, body []byte, code int) {
		t.Helper()
		if resp.StatusCode != code {
			t.Fatalf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, code, body)
		}
	}

	spec := tinySpec()
	spec.Metric = "add-all"
	spec.Train.Seed = 6
	resp, body := doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: spec}, "")
	expect(resp, body, http.StatusCreated)
	id := spec.ID()
	waitFor(id, StateReady)
	det, _, _ := pool.Detector(id)
	url := ts.URL + "/v2/detectors/" + id

	items := sampleItems(det, 5, 41)
	resp, body = doJSON(t, "POST", url+"/check", items[0], "")
	expect(resp, body, http.StatusOK)
	resp, body = doJSON(t, "POST", url+"/check", items[0], "")
	expect(resp, body, http.StatusOK)
	resp, body = doJSON(t, "POST", url+"/check/batch", BatchRequest{Items: items[1:]}, "")
	expect(resp, body, http.StatusOK)
	resp, body = doJSON(t, "POST", url+"/correct", CorrectRequest{Observation: items[2].Observation}, "")
	expect(resp, body, http.StatusOK)
	resp, body = doJSON(t, "POST", url+"/rethreshold", RethresholdRequest{Percentile: 95}, "")
	expect(resp, body, http.StatusOK)
	resp, body = doJSON(t, "POST", url+"/check", BatchItemJSON{Observation: []int{1}}, "")
	expect(resp, body, http.StatusBadRequest)
	resp, body = doJSON(t, "GET", url, nil, "")
	expect(resp, body, http.StatusOK)
	resp, body = doJSON(t, "GET", ts.URL+"/v2/detectors", nil, "")
	expect(resp, body, http.StatusOK)

	bad := tinySpec()
	bad.Train.Seed = 666
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors", RegisterRequest{Spec: bad}, "")
	expect(resp, body, http.StatusCreated)
	waitFor(bad.ID(), StateFailed)
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/"+bad.ID()+"/check", items[0], "")
	expect(resp, body, http.StatusConflict)
	resp, body = doJSON(t, "POST", ts.URL+"/v2/detectors/dmissing/check", items[0], "")
	expect(resp, body, http.StatusNotFound)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// exposedSample is one parsed series line of an exposition.
type exposedSample struct {
	id, value string
}

// timingDependent reports whether a series' value depends on wall time
// or on the host: finite histogram buckets, sums, the last training
// duration, and the training budget (a count of the host's cores).
// Counts (and the +Inf bucket, which equals the count) are
// deterministic.
func timingDependent(id string) bool {
	name, _, _ := strings.Cut(id, "{")
	switch {
	case strings.HasSuffix(name, "_bucket"):
		return !strings.Contains(id, `le="+Inf"`)
	case strings.HasSuffix(name, "_sum"):
		return true
	}
	return name == "ladd_train_last_seconds" || name == "ladd_sched_training_cores"
}

// parseExposition splits an exposition into its HELP/TYPE lines and its
// series samples.
func parseExposition(t *testing.T, text string) (meta []string, samples []exposedSample) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			meta = append(meta, line)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		samples = append(samples, exposedSample{id: line[:i], value: line[i+1:]})
	}
	return meta, samples
}

// goldenLines renders an exposition in the golden file's form: sorted
// HELP/TYPE lines and series lines, timing-dependent values masked.
func goldenLines(t *testing.T, text string) []string {
	meta, samples := parseExposition(t, text)
	lines := append([]string(nil), meta...)
	for _, s := range samples {
		v := s.value
		if timingDependent(s.id) {
			v = "*"
		}
		lines = append(lines, s.id+" "+v)
	}
	sort.Strings(lines)
	return lines
}

// TestExpositionGolden pins the /metrics families, HELP and TYPE text,
// label sets, bucket bounds and deterministic values for a fixed request
// sequence. The only series allowed beyond the golden ones are
// zero-valued per-endpoint series: every mounted endpoint exports its
// series from boot.
func TestExpositionGolden(t *testing.T) {
	text := driveGoldenSequence(t)
	raw, err := os.ReadFile(goldenExpositionPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	goldenIDs := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		golden[l] = true
		if !strings.HasPrefix(l, "#") {
			goldenIDs[l[:strings.LastIndexByte(l, ' ')]] = true
		}
	}
	got := map[string]bool{}
	for _, l := range goldenLines(t, text) {
		got[l] = true
		if strings.HasPrefix(l, "#") && !golden[l] {
			t.Errorf("new HELP/TYPE line %q", l)
		}
	}
	for l := range golden {
		if !got[l] {
			t.Errorf("exposition lost golden line %q", l)
		}
	}
	_, samples := parseExposition(t, text)
	for _, s := range samples {
		if !goldenIDs[s.id] && (!strings.Contains(s.id, `endpoint="`) || s.value != "0") {
			t.Errorf("new series %s %s: only zero-valued endpoint series may join the golden set", s.id, s.value)
		}
	}
}

// TestREADMEListsEveryMetricFamily fails for any family GET /metrics
// exports that README.md's /metrics table does not name in full.
func TestREADMEListsEveryMetricFamily(t *testing.T) {
	srv, err := NewServer(ServerConfig{Default: tinySpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := parseExposition(t, rec.Body.String())
	n := 0
	for _, line := range meta {
		name, ok := strings.CutPrefix(line, "# HELP ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, " ")
		n++
		if !strings.Contains(string(readme), "| `"+name+"` |") {
			t.Errorf("README.md's /metrics table does not list %s", name)
		}
	}
	if n == 0 {
		t.Fatal("no # HELP lines in /metrics")
	}
}
