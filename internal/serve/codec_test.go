package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/rng"
)

func verdictJSON(v core.Verdict) CheckResponse {
	return CheckResponse{Score: v.Score, Threshold: v.Threshold, Alarm: v.Alarm}
}

// marshalLine is what json.NewEncoder(w).Encode(v) writes.
func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestEncoderMatchesEncodingJSON pins the append encoder byte for byte
// to encoding/json, across float formatting's edges (the 'e' switch
// below 1e-6 and from 1e21, subnormals, the largest float, signed zero)
// and random bit patterns.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21,
		999999999999999900000, math.MaxFloat64, -math.MaxFloat64, 1, -1.5,
		0.1, 123.456, 3.4028234663852886e38, 1e-300, 2.5e-8,
	}
	r := rng.New(11)
	for len(floats) < 2000 {
		f := math.Float64frombits(r.Uint64())
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			floats = append(floats, f)
		}
	}
	c := new(scratch)
	var batch []core.Verdict
	for i, f := range floats {
		v := core.Verdict{Score: f, Threshold: floats[(i+1)%len(floats)], Alarm: i%2 == 0}
		batch = append(batch, v)
		if !c.encodeVerdict(v) {
			t.Fatalf("encodeVerdict(%v) refused a finite value", v)
		}
		if want := marshalLine(t, verdictJSON(v)); !bytes.Equal(c.out, want) {
			t.Fatalf("verdict %v: got %q, want %q", v, c.out, want)
		}
		resp := CorrectResponse{Location: PointJSON{X: f, Y: -f}}
		if !c.encodeCorrection(resp) {
			t.Fatalf("encodeCorrection(%v) refused a finite value", resp)
		}
		if want := marshalLine(t, resp); !bytes.Equal(c.out, want) {
			t.Fatalf("correction %v: got %q, want %q", resp, c.out, want)
		}
	}
	// A batch whose threshold repeats, changes mid-batch (a rethreshold
	// between two scorings) and changes back, and whose zeros differ
	// only in sign: the encoder copies a repeated threshold's bytes.
	var shared []core.Verdict
	for i, thr := range []float64{46.18, 46.18, 46.18, 40.29, 40.29, 46.18, 0, math.Copysign(0, -1), 0, 2.5e-8, 2.5e-8} {
		shared = append(shared, core.Verdict{Score: floats[i], Threshold: thr, Alarm: i%3 == 0})
	}
	for _, batch := range [][]core.Verdict{batch, shared} {
		want := BatchResponse{Results: make([]CheckResponse, len(batch))}
		for i, v := range batch {
			want.Results[i] = verdictJSON(v)
		}
		if !c.encodeBatch(batch) {
			t.Fatal("encodeBatch refused finite values")
		}
		if w := marshalLine(t, want); !bytes.Equal(c.out, w) {
			t.Fatalf("batch encodings differ:\n got %q\nwant %q", c.out, w)
		}
	}

	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if c.encodeVerdict(core.Verdict{Score: bad}) || c.encodeBatch([]core.Verdict{{Threshold: bad}}) ||
			c.encodeCorrection(CorrectResponse{Location: PointJSON{Y: bad}}) {
			t.Errorf("encoder accepted %v, which encoding/json refuses", bad)
		}
	}
	rec := httptest.NewRecorder()
	writeEncoded(rec, c, false)
	if rec.Code != http.StatusInternalServerError || decodeAPIError(t, rec.Body.Bytes()).Code != CodeInternal {
		t.Errorf("unencodable response: status %d body %s, want 500 internal", rec.Code, rec.Body)
	}
}

// TestScannerAcceptsCanonicalBodies checks the scanner takes the bodies
// clients send (so the fast path is the common path) and hands off the
// shapes whose encoding/json result it does not reproduce.
func TestScannerAcceptsCanonicalBodies(t *testing.T) {
	item := `{"observation":[0,3,12],"location":{"x":150.25,"y":-0}}`
	cases := []scanCase{
		{`{"items":[` + item + `,` + item + `]}`, [3]bool{true, false, false}},
		{" \n{ \"items\" :\t[ ] }\r\n", [3]bool{true, false, false}},
		{`{}`, [3]bool{true, true, true}},
		{item, [3]bool{false, true, false}},
		{`{"location":{"x":1e3}}`, [3]bool{false, true, false}},
		{`{"observation":[999999999999999999]}`, [3]bool{false, true, true}},
		// Hand-offs: each is a shape the scanner refuses.
		{`{"items":[` + item + `]}{"items":[]}`, [3]bool{}},
		{`{"Items":[]}`, [3]bool{}},
		{`{"items":[],"items":[]}`, [3]bool{}},
		{`{"items":null}`, [3]bool{}},
		{`{"observation":[01]}`, [3]bool{}},
		{`{"observation":[-1]}`, [3]bool{}},
		{`{"observation":[1.0]}`, [3]bool{}},
		{`{"observation":[1000000000000000000]}`, [3]bool{}},
		{`{"location":{"x":1e400}}`, [3]bool{}},
		{`{"location":{"x":-}}`, [3]bool{}},
		{`{"detector":{},"items":[]}`, [3]bool{}},
		{`{"observation":[1],"extra":0}`, [3]bool{}},
		// The retired correction knobs are unknown keys like any other.
		{`{"observation":[5],"trimmed":true,"trim_fraction":0.25,"rounds":3}`, [3]bool{}},
		{`{"observation":[5],"trimmed":false}`, [3]bool{}},
		{``, [3]bool{}},
	}
	cases = append(cases, zeroRunCases...)
	cases = append(cases, locTableCases...)
	c := new(scratch)
	for _, tc := range cases {
		c.body = []byte(tc.body)
		got := [3]bool{c.scanBatch(new(BatchRequest)), c.scanCheck(new(BatchItemJSON)), c.scanCorrect(new(CorrectRequest))}
		if got != tc.accept {
			t.Errorf("%s: scanner accepts (batch, check, correct) = %v, want %v", tc.body, got, tc.accept)
		}
	}
}

// scanCase is a body and whether the scanner accepts it as a batch, a
// check and a correction.
type scanCase struct {
	body   string
	accept [3]bool // batch, check, correct
}

// zeroRunCases hold runs of zero counts, which scanInts takes eight
// bytes at a time, against every kind of end: a run whose length is or
// is not a multiple of four, one closed by ']', one cut off by the end
// of the body, and runs followed by whitespace or by a count the scanner
// refuses.
var zeroRunCases = func() []scanCase {
	obs := func(counts string) string { return `{"observation":[` + counts + `]}` }
	zeros := func(n int) string { return strings.Repeat("0,", n) }
	cases := []scanCase{
		{obs(zeros(7) + "0"), [3]bool{false, true, true}},
		{obs(zeros(4) + "0 ," + zeros(4) + "0"), [3]bool{false, true, true}},
		{obs(zeros(4) + "0, 0,\n0\t,0,0"), [3]bool{false, true, true}},
		{obs(zeros(8) + "999999999999999999"), [3]bool{false, true, true}},
		{`{"items":[{"observation":[` + zeros(16) + `3],"location":{"x":1,"y":2}}]}`, [3]bool{true, false, false}},
		{obs(zeros(8)), [3]bool{}},
		{`{"observation":[` + zeros(8), [3]bool{}},
		{`{"observation":[` + zeros(9) + "0", [3]bool{}},
		{obs(zeros(8) + "00"), [3]bool{}},
		{obs(zeros(8) + "-1"), [3]bool{}},
		{obs(zeros(8) + "1.0"), [3]bool{}},
		{obs(zeros(8) + "1234567890123456789"), [3]bool{}},
	}
	for _, n := range []int{3, 4, 7, 8, 9, 16, 17} {
		cases = append(cases, scanCase{obs(zeros(n) + "2"), [3]bool{false, true, true}})
	}
	return cases
}()

// batchOf is a batch body whose items carry the given location texts,
// each with a one-count observation.
func batchOf(locs ...string) string {
	items := make([]string, len(locs))
	for i, l := range locs {
		items[i] = `{"observation":[` + strconv.Itoa(i) + `],"location":` + l + `}`
	}
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// locTableCases exercise the scanner's per-body table of decoded
// location objects: byte-identical repeats, which it copies; repeats
// that differ in whitespace or key order, and texts that extend a
// remembered one, which it must decode afresh; objects too short to be
// remembered; more distinct locations than the table holds; and a
// remembered text followed by bytes the scanner refuses.
var locTableCases = func() []scanCase {
	const a = `{"x":1,"y":2}`
	distinct := make([]string, 10)
	for i := range distinct {
		distinct[i] = `{"x":` + strconv.Itoa(100+i) + `.5,"y":-` + strconv.Itoa(i) + `}`
	}
	batch := [3]bool{true, false, false}
	return []scanCase{
		{batchOf(a, a, a, a), batch},
		{batchOf(a, `{ "x":1,"y":2}`, `{"x":1, "y":2 }`, `{"y":2,"x":1}`, a), batch},
		{batchOf(a, `{"x":1,"y":25}`, `{"x":1,"y":2.5}`, `{"x":1,"y":2e1}`, a), batch},
		{batchOf(a, `{"x":1}`, `{"x":1}`, `{}`, `{}`, a), batch},
		{batchOf(append(distinct, distinct[9], distinct[8], distinct[0], distinct[7])...), batch},
		{batchOf(a, a+`x`), [3]bool{}},
		{batchOf(a, a+`,"location":`+a), [3]bool{}},
		{batchOf(a, `{"x":1,"y":2,"x":3}`), [3]bool{}},
		{batchOf(a, `{"x":1,"y":2`), [3]bool{}},
		{`{"items":[{"observation":[0],"location":` + a + `},{"observation":[1],"location":` + a, [3]bool{}},
	}
}()

// TestLocationTableResetsPerBody decodes bodies one after another
// through one scratch. Each body's location texts extend or rewrite the
// previous body's at the same offsets, so a table entry left over from
// the previous body would match there and hand back its point.
func TestLocationTableResetsPerBody(t *testing.T) {
	c := new(scratch)
	for _, body := range []string{
		batchOf(`{"x":1,"y":2}`, `{"x":1,"y":2}`, `{"x":3,"y":4}`),
		batchOf(`{"x":1,"y":25}`, `{"x":1,"y":2.5}`, `{"x":3,"y":4.5}`),
		batchOf(`{"x":1,"y":7}`, `{"x":1,"y":2}`, `{"x":3,"y":4}`),
	} {
		if err := c.readBody(strings.NewReader(body), int64(len(body))); err != nil {
			t.Fatal(err)
		}
		var got, want BatchRequest
		if !c.scanBatch(&got) {
			t.Fatalf("scanner refused %s", body)
		}
		if err := decodeJSON([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanner decoded %v, encoding/json %v", body, got.Items, want.Items)
		}
	}
}

// scanAgrees asserts the scanner's contract on one body for one request
// type: it hands off, or it returns exactly what the strict encoding/json
// decoder returns.
func scanAgrees[T any](t *testing.T, c *scratch, body []byte, scan func(*scratch, *T) bool) {
	t.Helper()
	c.body = body
	var got T
	if !scan(c, &got) {
		return
	}
	var want T
	if err := decodeJSON(body, &want); err != nil {
		t.Fatalf("scanner accepted %q as %T, encoding/json rejects it: %v", body, got, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner decoded %q as %#v, encoding/json as %#v", body, got, want)
	}
}

// FuzzV2RequestDecode is the scanner's differential fuzz: for each of
// the three hot request types, a body the scanner accepts must decode to
// the value encoding/json (unknown fields disallowed, trailing data
// rejected) returns for it. Scratch comes from the shared pool, so state
// left over from a previous body would show too.
func FuzzV2RequestDecode(f *testing.F) {
	for _, s := range []string{
		`{"items":[{"observation":[0,1,2],"location":{"x":150,"y":150.5}}]}`,
		`{"observation":[0,1,2],"location":{"x":1,"y":2}}`,
		`{"items":[]}`, `{"observation":[]}`, `{}`,
		// Case-variant, duplicate, null and escaped keys.
		`{"Observation":[1],"LOCATION":{"X":1,"y":2}}`,
		`{"observation":[1],"observation":[2]}`,
		`{"location":{"x":1},"location":{"y":2}}`,
		`{"items":null}`, `{"observation":null}`, `{"location":null}`,
		`{"items":[null]}`, `{"observation":[null]}`,
		`{"observ\u0061tion":[1]}`, `{"items":[{"location":{"\u0078":1}}]}`, `{"x":1}`,
		// Number edges.
		`{"location":{"x":-0,"y":1e400}}`, `{"location":{"x":01}}`, `{"location":{"x":5e-324,"y":1E+2}}`,
		`{"observation":[1234567890123456789]}`, `{"observation":[999999999999999999]}`,
		`{"observation":[-1]}`, `{"observation":[-0]}`, `{"observation":[1.0]}`, `{"observation":[1e2]}`,
		// Missing location, whitespace everywhere, trailing data.
		`{"items":[{"observation":[3]}]}`,
		" \t\n{ \"items\" : [ { \"observation\" : [ 1 , 2 ] , \"location\" : { \"x\" : 1 , \"y\" : 2 } } ] } \r\n",
		`{"items":[{"observation":[1]}]}{"items":[{"observation":[2]}]}`,
		`{"observation":[1]} garbage`, `{"observation":[1],}`, `[1]`, `"s"`, ``,
		// The retired correction knobs: both decoders refuse them.
		`{"observation":[4,0],"trimmed":true,"trim_fraction":0.1,"rounds":2}`,
		`{"observation":[4,0],"trimmed":false}`, `{"trimmed":null}`,
		`{"rounds":-3}`, `{"rounds":1.5}`, `{"trim_fraction":-0.0}`,
	} {
		f.Add([]byte(s))
	}
	for _, tc := range slices.Concat(zeroRunCases, locTableCases) {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := getScratch()
		defer c.release()
		scanAgrees(t, c, body, (*scratch).scanBatch)
		scanAgrees(t, c, body, (*scratch).scanCheck)
		scanAgrees(t, c, body, (*scratch).scanCorrect)
	})
}

// TestTrailingDataRejected: non-whitespace after the request value is a
// 400 on every endpoint that decodes a body. A concatenated batch used
// to answer 200 with the first batch's verdicts and drop the rest.
func TestTrailingDataRejected(t *testing.T) {
	ts, _, det := newTestServer(t)
	its := sampleItems(det, 3, 21)
	v2 := ts.URL + "/v2/detectors/" + tinySpec().ID()
	one := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	check := one(its[0])
	batch := one(BatchRequest{Items: its[:1]})
	correct := one(CorrectRequest{Observation: its[0].Observation})
	register := one(RegisterRequest{Spec: tinySpec()})
	rethreshold := `{"percentile":99}`
	// Same bytes with a key in another case: the scanner hands these to
	// encoding/json, so the fallback path sees the trailing data too.
	upper := strings.Replace(check, `"observation"`, `"Observation"`, 1)

	cases := []struct {
		name, url, body string
		status          int
	}{
		{"v2 concatenated batches", v2 + "/check/batch", batch + one(BatchRequest{Items: its[1:]}), 400},
		{"v2 batch", v2 + "/check/batch", batch + " garbage", 400},
		{"v2 check", v2 + "/check", check + "x", 400},
		{"v2 check fallback", v2 + "/check", upper + "{}", 400},
		{"v2 correct", v2 + "/correct", correct + "0", 400},
		{"v2 register", ts.URL + "/v2/detectors", register + "}", 400},
		{"v2 rethreshold", v2 + "/rethreshold", rethreshold + "]", 400},
		// Trailing whitespace is not data.
		{"v2 batch whitespace", v2 + "/check/batch", batch + " \r\n\t", 200},
		{"v2 check fallback whitespace", v2 + "/check", upper + "\n", 200},
	}
	for _, tc := range cases {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body.Bytes())
			continue
		}
		if tc.status == 400 {
			if e := decodeAPIError(t, body.Bytes()); e.Code != CodeInvalidArgument || !strings.Contains(e.Message, "after top-level value") {
				t.Errorf("%s: error %+v, want invalid_argument naming the trailing data", tc.name, e)
			}
		}
	}
}

// TestResponsesDeclareLength: every encoded response carries its
// Content-Length, including a 64-item batch's, which is larger than
// net/http's 2 kB buffer and used to go out chunked with no length.
func TestResponsesDeclareLength(t *testing.T) {
	ts, _, det := newTestServer(t)
	its := sampleItems(det, 64, 9)
	batch, err := json.Marshal(BatchRequest{Items: its})
	if err != nil {
		t.Fatal(err)
	}
	check, err := json.Marshal(its[0])
	if err != nil {
		t.Fatal(err)
	}
	v2 := defaultURL(ts)
	for _, tc := range []struct{ url, body string }{
		{v2 + "/check/batch", string(batch)},
		{v2 + "/check", string(check)},
		{v2 + "/check", "{"},
	} {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(body.Len()) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%s (status %d): ContentLength %d, TransferEncoding %v for a %d-byte body",
				tc.url, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, body.Len())
		}
	}
}

// TestScratchPoolDropsLargeBuffers: a buffer over 1 MB is not kept for
// the next request, so one huge batch does not pin its memory, neither
// directly nor through items that still point into its ints slab.
func TestScratchPoolDropsLargeBuffers(t *testing.T) {
	c := &scratch{
		body:  make([]byte, 0, maxPooledBytes+1),
		ints:  make([]int, 0, maxPooledBytes/8),
		items: make([]BatchItemJSON, 0, maxPooledBytes/16),
		out:   make([]byte, 0, 4096),
	}
	ints, out := c.ints, c.out
	c.release()
	if c.body != nil || c.items != nil {
		t.Errorf("release kept a buffer over %d bytes: body cap %d, items cap %d", maxPooledBytes, cap(c.body), cap(c.items))
	}
	if cap(c.ints) != cap(ints) || cap(c.out) != cap(out) {
		t.Errorf("release dropped a buffer of at most %d bytes", maxPooledBytes)
	}

	// A batch whose slab outgrows the limit (4096 items of 40 counts),
	// then a small one on the same scratch. The items array is small
	// enough to be kept; none of its entries may still point into the
	// dropped slab.
	scan := func(items, counts int) {
		obs := "[" + strings.Repeat("0,", counts-1) + "0]"
		item := `{"observation":` + obs + `,"location":{"x":1,"y":2}}`
		c.body = []byte(`{"items":[` + strings.Repeat(item+",", items-1) + item + `]}`)
		if !c.scanBatch(new(BatchRequest)) {
			t.Fatalf("scanner refused a %d-item batch", items)
		}
	}
	c = new(scratch)
	scan(4096, 40)
	if size := cap(c.ints) * 8; size <= maxPooledBytes {
		t.Fatalf("slab of %d bytes does not exceed the pool limit", size)
	}
	c.release()
	scan(2, 3)
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(c.ints)))
	hi := lo + uintptr(cap(c.ints))*unsafe.Sizeof(0)
	for i, it := range c.items[:cap(c.items)] {
		if p := uintptr(unsafe.Pointer(unsafe.SliceData(it.Observation))); it.Observation != nil && (p < lo || p >= hi) {
			t.Fatalf("item %d of %d still points outside the kept slab", i, cap(c.items))
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status and the
// body length, so an allocation count sees the handler alone.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header  { return d.header }
func (d *discardWriter) WriteHeader(code int) { d.status = code }
func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

// rewindBody is a request body that can be replayed.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// maxV2BatchAllocs bounds the allocations of one warmed 64-item v2
// check/batch through the whole handler stack. The codec contributes
// none; what is left is core's per-batch location dedup map (about 9
// for 64 distinct locations), net/http's routing, body cap and header
// map, the response's header values and formatted length, the
// instrumentation's status recorder, and the request value.
const maxV2BatchAllocs = 16

func TestV2BatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	_, srv, det := newTestServer(t)
	raw, err := json.Marshal(BatchRequest{Items: sampleItems(det, 64, 3)})
	if err != nil {
		t.Fatal(err)
	}
	post, w := replayer(srv.Handler(), "/v2/detectors/"+tinySpec().ID()+"/check/batch")
	serve := func() { post(raw) }
	for range 3 {
		serve()
	}
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("warm-up request: status %d, %d body bytes", w.status, w.n)
	}
	allocs := testing.AllocsPerRun(200, serve)
	if allocs > maxV2BatchAllocs {
		t.Errorf("64-item v2 check/batch: %.0f allocs per request, want at most %d", allocs, maxV2BatchAllocs)
	}
	t.Logf("64-item v2 check/batch: %.0f allocs per request", allocs)
}

// replayer returns a function that serves one POST of a body to path
// through h, into the discard writer it also returns.
func replayer(h http.Handler, path string) (func(raw []byte), *discardWriter) {
	body := new(rewindBody)
	req := httptest.NewRequest(http.MethodPost, path, body)
	w := &discardWriter{header: http.Header{}}
	return func(raw []byte) {
		body.Reset(raw)
		req.Body = body
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
	}, w
}

// paperHandler stands up a warmed server over the paper deployment and
// returns its handler, default detector and v2 resource path.
func paperHandler(b *testing.B) (http.Handler, *core.Detector, string) {
	spec := tinySpec()
	spec.Deployment = deploy.PaperConfig()
	spec.Train.Trials = 300
	srv, err := NewServer(ServerConfig{Default: spec, MaxBatch: 128}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Warmup(); err != nil {
		b.Fatal(err)
	}
	det, err := srv.Pool().await(spec)
	if err != nil {
		b.Fatal(err)
	}
	return srv.Handler(), det, "/v2/detectors/" + spec.ID()
}

// benchPost times posting bodies to path through h in rotation.
func benchPost(b *testing.B, h http.Handler, path string, bodies [][]byte) {
	post, w := replayer(h, path)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		post(bodies[i%len(bodies)])
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
		i++
	}
}

// BenchmarkV2CheckBatch times one 64-item check/batch over 8 claimed
// locations of the paper deployment, the shape of ladperf's batch-hot,
// through the whole handler: read, scan, score from the expectation
// cache, encode. About nine in ten counts of a body are zero.
func BenchmarkV2CheckBatch(b *testing.B) { benchBatch(b, 8) }

// BenchmarkV2CheckBatchDistinct is BenchmarkV2CheckBatch over 64
// distinct claimed locations: every item misses the scanner's per-body
// location table, and all but the first eight find it full.
func BenchmarkV2CheckBatchDistinct(b *testing.B) { benchBatch(b, 1) }

// benchBatch times one 64-item check/batch whose in-field claimed
// locations each repeat perLoc times.
func benchBatch(b *testing.B, perLoc int) {
	h, det, path := paperHandler(b)
	model, r := det.Model(), rng.New(3)
	var req BatchRequest
	for len(req.Items) < 64 {
		group, la := model.SampleLocation(r)
		if !model.Field().Contains(la) {
			continue
		}
		for range perLoc {
			req.Items = append(req.Items, BatchItemJSON{
				Observation: model.SampleObservation(la, group, r),
				Location:    PointJSON{X: la.X, Y: la.Y},
			})
		}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	benchPost(b, h, path+"/check/batch", [][]byte{raw})
}

// BenchmarkV2Check times single checks through the whole handler over a
// rotation of 4096 claimed locations, four times the paper deployment's
// expectation cache, so each check also fills an expectation: the
// per-request cost of ladperf's single-cold.
func BenchmarkV2Check(b *testing.B) {
	h, det, path := paperHandler(b)
	items := sampleItems(det, 4096, 5)
	bodies := make([][]byte, len(items))
	for i, it := range items {
		raw, err := json.Marshal(it)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	benchPost(b, h, path+"/check", bodies)
}
