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
// resource caps so fuzzed inline specs either bounce off the validator
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

// FuzzCheckRequestJSON throws arbitrary bytes at the strict request
// decoder behind POST /v1/check and asserts the error-taxonomy contract
// the errcodes analyzer enforces statically: every response is JSON,
// and every non-200 carries exactly one structured APIError whose code
// is in the canonical table and maps to exactly the HTTP status sent.
func FuzzCheckRequestJSON(f *testing.F) {
	// Well-formed request against the default (trained) detector.
	f.Add([]byte(`{"observation":[0,0,0,0,0,0,0,0,0],"location":{"x":150,"y":150}}`))
	// Malformed JSON, empty body, and a bare value.
	f.Add([]byte(`{"observation":[1,2`))
	f.Add([]byte(``))
	f.Add([]byte(`42`))
	// Unknown field (DisallowUnknownFields must 400, not ignore).
	f.Add([]byte(`{"observation":[0],"location":{"x":0,"y":0},"extra":true}`))
	// Wrong-length observation and non-finite-looking numbers.
	f.Add([]byte(`{"observation":[1,2,3],"location":{"x":1e308,"y":-1e308}}`))
	// Inline spec over the server's caps (must 400 before training).
	f.Add([]byte(`{"detector":{"deployment":{"groups_x":100,"groups_y":100}},"observation":[0],"location":{"x":0,"y":0}}`))
	// Inline spec with huge trials (cap check, not a long training run).
	f.Add([]byte(`{"detector":{"train":{"trials":1000000}},"observation":[0],"location":{"x":0,"y":0}}`))

	handler, err := fuzzServer()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		assertTaxonomy(t, rec, new(CheckResponse))
	})
}

// v2Verbs are the v2 endpoints FuzzV2RequestJSON drives, each with the
// type of its 200 body.
var v2Verbs = []struct {
	path string
	ok   func() any
}{
	{"/check", func() any { return new(CheckResponse) }},
	{"/check/batch", func() any { return new(BatchResponse) }},
	{"/correct", func() any { return new(CorrectResponse) }},
}

// FuzzV2RequestJSON extends FuzzCheckRequestJSON's error-taxonomy
// contract to the v2 check, check/batch and correct verbs, whose bodies
// go through the request codec's scanner: verb selects the endpoint.
func FuzzV2RequestJSON(f *testing.F) {
	obs := `[0,0,0,0,0,0,0,0,0]`
	for verb, body := range []string{
		`{"observation":` + obs + `,"location":{"x":150,"y":150}}`,
		`{"items":[{"observation":` + obs + `,"location":{"x":150,"y":150}}]}`,
		`{"observation":[0,0,0,0,9,0,0,0,0],"trimmed":true,"trim_fraction":0.2,"rounds":2}`,
	} {
		for _, b := range []string{
			body, body + "garbage", body + body, strings.ToUpper(body),
			`{"observation":[1,2]}`, `{"items":[]}`, `{"observation":` + obs + `,"rounds":-1}`,
			`{"observation":` + obs + `,"trim_fraction":1}`, `{"items":[{"observation":[-1,0,0,0,0,0,0,0,0]}]}`,
			`{"location":{"x":1e400}}`, `null`, ``,
		} {
			f.Add(uint8(verb), []byte(b))
		}
	}

	handler, err := fuzzServer()
	if err != nil {
		f.Fatal(err)
	}
	prefix := "/v2/detectors/" + tinySpec().ID()

	f.Fuzz(func(t *testing.T, verb uint8, body []byte) {
		v := v2Verbs[int(verb)%len(v2Verbs)]
		req := httptest.NewRequest(http.MethodPost, prefix+v.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		assertTaxonomy(t, rec, v.ok())
	})
}

// assertTaxonomy checks one response against the error-taxonomy
// contract: a 200 body strictly decodes into ok, and any other status
// carries one structured APIError whose code is in the canonical table
// and maps to exactly that status.
func assertTaxonomy(t *testing.T, rec *httptest.ResponseRecorder, ok any) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("status %d with Content-Type %q, want application/json", rec.Code, ct)
	}
	if rec.Code == http.StatusOK {
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
