package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzServer builds one server shared across fuzz iterations: tight
// resource caps so fuzzed register specs either bounce off the validator
// (400), hit the pool limit (429), or train in milliseconds, and a
// pre-warmed default detector so the happy path answers without a cold
// start per input.
var fuzzServer = sync.OnceValues(func() (http.Handler, error) {
	srv, err := NewServer(ServerConfig{
		Default:            tinySpec(),
		MaxBatch:           16,
		MaxBodyBytes:       1 << 16,
		MaxTrainTrials:     100,
		MaxGroups:          9,
		MaxGroupSize:       40,
		MaxCachedDetectors: 4,
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := srv.Warmup(); err != nil {
		return nil, err
	}
	return srv.Handler(), nil
})

// v2Verbs are the v2 endpoints FuzzV2RequestJSON drives, each with the
// type of its success body. Per-detector verbs address the default
// detector.
var v2Verbs = []struct {
	path string
	ok   func() any
}{
	{"/v2/detectors/" + tinySpec().ID() + "/check", func() any { return new(CheckResponse) }},
	{"/v2/detectors/" + tinySpec().ID() + "/check/batch", func() any { return new(BatchResponse) }},
	{"/v2/detectors/" + tinySpec().ID() + "/correct", func() any { return new(CorrectResponse) }},
	{"/v2/detectors", func() any { return new(DetectorJSON) }},
	{"/v2/detectors/" + tinySpec().ID() + "/rethreshold", func() any { return new(DetectorJSON) }},
}

// FuzzV2RequestJSON throws arbitrary bytes at the v2 verbs that take a
// body (verb selects the endpoint) and asserts the error-taxonomy
// contract the errcodes analyzer enforces statically: every response is
// JSON, and every non-success carries exactly one structured APIError
// whose code is in the canonical table and maps to exactly the HTTP
// status sent.
func FuzzV2RequestJSON(f *testing.F) {
	obs := `[0,0,0,0,0,0,0,0,0]`
	for verb, body := range []string{
		`{"observation":` + obs + `,"location":{"x":150,"y":150}}`,
		`{"items":[{"observation":` + obs + `,"location":{"x":150,"y":150}}]}`,
		`{"observation":[0,0,0,0,9,0,0,0,0]}`,
	} {
		for _, b := range []string{
			body, body + "garbage", body + body, strings.ToUpper(body),
			`{"observation":[1,2]}`, `{"items":[]}`, `{"observation":` + obs + `,"rounds":-1}`,
			`{"observation":` + obs + `,"trim_fraction":1}`, `{"items":[{"observation":[-1,0,0,0,0,0,0,0,0]}]}`,
			`{"observation":[0,0,0,0,9,0,0,0,0],"trimmed":true,"trim_fraction":0.2,"rounds":2}`,
			`{"location":{"x":1e400}}`, `null`, ``,
		} {
			f.Add(uint8(verb), []byte(b))
		}
	}
	// Malformed JSON, a bare value, an unknown field, and coordinates at
	// the edge of float64, on the check verb.
	for _, b := range []string{
		`{"observation":[1,2`, `42`,
		`{"observation":[0],"location":{"x":0,"y":0},"extra":true}`,
		`{"observation":[1,2,3],"location":{"x":1e308,"y":-1e308}}`,
	} {
		f.Add(uint8(0), []byte(b))
	}
	// Register: specs over the server's caps must 400 before training,
	// both with snake-case keys (unknown fields) and with the real ones.
	over := func(mut func(*DetectorSpec)) string {
		spec := tinySpec()
		mut(&spec)
		b, err := json.Marshal(RegisterRequest{Spec: spec})
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	for _, b := range []string{
		`{"spec":{"deployment":{"groups_x":100,"groups_y":100}}}`,
		`{"spec":{"train":{"trials":1000000}}}`,
		over(func(s *DetectorSpec) { s.Deployment.GroupsX, s.Deployment.GroupsY = 100, 100 }),
		over(func(s *DetectorSpec) { s.Train.Trials = 1e6 }),
		over(func(s *DetectorSpec) { s.Train.Seed = 3 }),
		`{"spec":{}}`, `{}`, ``,
	} {
		f.Add(uint8(3), []byte(b))
	}
	// Rethreshold: in range, out of range, wrong type, unknown field.
	for _, b := range []string{
		`{"percentile":95}`, `{"percentile":100}`, `{"percentile":-1}`,
		`{"percentile":"95"}`, `{"percentile":95,"extra":1}`, `{}`,
	} {
		f.Add(uint8(4), []byte(b))
	}

	handler, err := fuzzServer()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, verb uint8, body []byte) {
		v := v2Verbs[int(verb)%len(v2Verbs)]
		req := httptest.NewRequest(http.MethodPost, v.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		assertTaxonomy(t, rec, v.ok())
	})
}

// assertTaxonomy checks one response against the error-taxonomy
// contract: a 200 (or a register's 201) body strictly decodes into ok,
// and any other status carries one structured APIError whose code is in
// the canonical table and maps to exactly that status.
func assertTaxonomy(t *testing.T, rec *httptest.ResponseRecorder, ok any) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("status %d with Content-Type %q, want application/json", rec.Code, ct)
	}
	if rec.Code == http.StatusOK || rec.Code == http.StatusCreated {
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(ok); err != nil {
			t.Fatalf("200 body is not a %T: %v", ok, err)
		}
		return
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("status %d body is not an error envelope: %v (body %q)", rec.Code, err, rec.Body.String())
	}
	if env.Error == nil {
		t.Fatalf("status %d envelope has no error object (body %q)", rec.Code, rec.Body.String())
	}
	status, known := codeStatus[env.Error.Code]
	if !known {
		t.Fatalf("status %d carries code %q not in the canonical table", rec.Code, env.Error.Code)
	}
	if status != rec.Code {
		t.Fatalf("code %q maps to %d but response status is %d", env.Error.Code, status, rec.Code)
	}
	if env.Error.Message == "" {
		t.Fatalf("status %d error %q has an empty message", rec.Code, env.Error.Code)
	}
}
