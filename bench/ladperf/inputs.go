package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/serve"
)

// oracle is the independent reference every answer is checked against:
// the same spec trained by core.Train rather than the scheduler's
// batched TrainRun (the two are bit-identical at simulation epoch 1),
// verdicts from Detector.Check rather than the expectation cache, and
// corrections from a fresh core.Corrector rather than the pool's.
type oracle struct {
	model *deploy.Model
	det   *core.Detector
	corr  *core.Corrector
}

func newOracle(spec serve.DetectorSpec) (*oracle, error) {
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		return nil, err
	}
	det, _, err := core.Train(model, core.MetricByName(spec.Metric), spec.Train.TrainConfig())
	if err != nil {
		return nil, fmt.Errorf("training the reference detector: %w", err)
	}
	return &oracle{model: model, det: det, corr: core.NewCorrector(model)}, nil
}

// referenceThreshold trains spec independently and returns its
// threshold.
func referenceThreshold(spec serve.DetectorSpec) (float64, error) {
	or, err := newOracle(spec)
	if err != nil {
		return 0, err
	}
	return or.det.Threshold(), nil
}

// request is one pre-encoded request with its expected answer.
type request struct {
	msg  []byte // the complete HTTP request
	want []byte // the expected response body, byte for byte
	hdr  int    // msg[hdr:] is the JSON body
	// obs and alarms count the observations the request checks and the
	// verdicts among them expected to alarm.
	obs, alarms int
	// corr is the correction that follows a report expected to alarm.
	corr *request
}

func newRequest(path string, body, want []byte) request {
	msg := encodeRequest("POST", path, body)
	return request{msg: msg, want: want, hdr: len(msg) - len(body)}
}

// body is the request's JSON body, for replays.
func (r *request) body() []byte { return r.msg[r.hdr:] }

// sameAnswer reports whether got is the expected answer. The server and
// the oracle encode the same structs with encoding/json, so the bytes
// normally match; when they do not, both sides are decoded into T and
// compared, so a change of encoding alone is not taken for a wrong
// answer.
func sameAnswer[T any](got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	var g, w T
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	return reflect.DeepEqual(g, w)
}

// answerJSON encodes v the way the server's writeJSON does: compact
// JSON and a trailing newline.
func answerJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire structs always marshal
	}
	return append(b, '\n')
}

func pointJSON(p geom.Point) serve.PointJSON { return serve.PointJSON{X: p.X, Y: p.Y} }

func (or *oracle) verdict(o []int, loc geom.Point) serve.CheckResponse {
	v := or.det.Check(o, loc)
	return serve.CheckResponse{Score: v.Score, Threshold: v.Threshold, Alarm: v.Alarm}
}

// batchRequest pre-encodes POST path with items as a check/batch body.
func (or *oracle) batchRequest(path string, items []core.BatchItem) request {
	req := serve.BatchRequest{Items: make([]serve.BatchItemJSON, len(items))}
	resp := serve.BatchResponse{Results: make([]serve.CheckResponse, len(items))}
	alarms := 0
	for i, it := range items {
		req.Items[i] = serve.BatchItemJSON{Observation: it.Observation, Location: pointJSON(it.Location)}
		resp.Results[i] = or.verdict(it.Observation, it.Location)
		if resp.Results[i].Alarm {
			alarms++
		}
	}
	body, _ := json.Marshal(req)
	r := newRequest(path, body, answerJSON(resp))
	r.obs, r.alarms = len(items), alarms
	return r
}

// singleRequest pre-encodes POST path as a single check.
func (or *oracle) singleRequest(path string, o []int, loc geom.Point) request {
	body, _ := json.Marshal(serve.BatchItemJSON{Observation: o, Location: pointJSON(loc)})
	v := or.verdict(o, loc)
	r := newRequest(path, body, answerJSON(v))
	r.obs = 1
	if v.Alarm {
		r.alarms = 1
	}
	return r
}

// located is a resident sensor location with its deployment group.
type located struct {
	group int
	p     geom.Point
}

// inField draws a resident location inside the deployment field.
func inField(m *deploy.Model, r *rng.Rand) located {
	for {
		g, p := m.SampleLocation(r)
		if m.Field().Contains(p) {
			return located{g, p}
		}
	}
}

// Input sizes fixed by the workload definitions in README.md.
const (
	hotPool       = 256 // distinct claimed locations batch-hot draws from
	hotItems      = 64  // items per batch request
	hotLocsPerReq = 8   // distinct claimed locations per batch request
	alarmTrue     = 512 // true locations of alarm-correct
	alarmForged   = 256 // pre-forged locations of alarm-correct
	attackShare   = 0.3
	forgeDistance = 160.0
	compromised   = 10 // Dec-Bounded budget x
	forgeMaxTries = 100
)

// hotRequests builds n batch requests of hotItems benign items each,
// claimed at hotLocsPerReq locations drawn from a hotPool-location
// pool: after warm-up every claimed location is in the expectation
// cache.
func (or *oracle) hotRequests(path string, r *rng.Rand, n int) []request {
	pool := make([]located, hotPool)
	for i := range pool {
		pool[i] = inField(or.model, r)
	}
	q := newRequests(n)
	for range n {
		pick := r.Perm(hotPool)[:hotLocsPerReq]
		items := make([]core.BatchItem, hotItems)
		for i := range items {
			l := pool[pick[i%hotLocsPerReq]]
			items[i] = core.BatchItem{Observation: or.model.SampleObservation(l.p, l.group, r), Location: l.p}
		}
		q.add(or.batchRequest(path, items))
	}
	return q.pack()
}

// coldRequests builds n single checks, each from a fresh benign sensor
// location: a rotation far larger than the expectation cache, so
// nearly every check misses it.
func (or *oracle) coldRequests(path string, r *rng.Rand, n int) []request {
	q := newRequests(n)
	o := make([]int, or.model.NumGroups())
	for range n {
		l := inField(or.model, r)
		or.model.SampleObservationInto(o, l.p, l.group, r)
		q.add(or.singleRequest(path, o, l.p))
	}
	return q.pack()
}

// alarmReports builds n single-check reports over a fixed set of
// alarmTrue true and alarmForged forged claimed locations, all of which
// fit in the expectation cache. An attackShare of reports is attacked:
// the claim is one of the forged locations, forgeDistance from its
// victim's true location, and the victim's observation is tainted by the
// Diff-greedy Dec-Bounded attacker with compromised nodes. Reports the
// oracle expects to alarm carry their follow-up correction.
func (or *oracle) alarmReports(prefix string, r *rng.Rand, n int) []request {
	m := or.model
	truth := make([]located, alarmTrue)
	for i := range truth {
		truth[i] = inField(m, r)
	}
	forged := make([]geom.Point, alarmForged)
	attackers := make([]attack.Strategy, alarmForged)
	for j := range forged {
		forged[j] = attack.ForgeLocationInField(truth[j].p, forgeDistance, m.Field(), r, forgeMaxTries)
		attackers[j] = attack.NewDiffMinimizer(core.NewExpectation(m, forged[j]).Mu, attack.DecBounded)
	}
	q := newRequests(n)
	for len(q.list) < n {
		var o []int
		var claim geom.Point
		if r.Float64() < attackShare {
			j := r.Intn(alarmForged)
			o = attackers[j].Taint(m.SampleObservation(truth[j].p, truth[j].group, r), compromised)
			claim = forged[j]
		} else {
			l := truth[r.Intn(alarmTrue)]
			o, claim = m.SampleObservation(l.p, l.group, r), l.p
		}
		req := or.singleRequest(prefix+"/check", o, claim)
		if req.alarms > 0 {
			p, err := or.corr.Correct(o)
			if err != nil {
				continue // no neighbours to localize from; /correct would answer 400
			}
			body, _ := json.Marshal(serve.CorrectRequest{Observation: o})
			corr := newRequest(prefix+"/correct", body, answerJSON(serve.CorrectResponse{Location: pointJSON(p)}))
			req.corr = &corr
		}
		q.add(req)
	}
	return q.pack()
}

// requests accumulates a rotation, packing the bytes of every packChunk
// requests into one pointer-free block: the rotation then costs the
// garbage collector a few large blocks it never scans, not hundreds of
// thousands of small objects in the heap the server under test shares,
// and the garbage of encoding one chunk is freed while the next is
// encoded.
type requests struct {
	list   []request
	packed int
}

const packChunk = 4096

func newRequests(n int) *requests { return &requests{list: make([]request, 0, n)} }

func (q *requests) add(r request) {
	q.list = append(q.list, r)
	if len(q.list)-q.packed == packChunk {
		q.pack()
	}
}

// pack moves the not yet packed requests' bytes into one block and
// returns the whole rotation.
func (q *requests) pack() []request {
	tail := q.list[q.packed:]
	total := 0
	for _, r := range tail {
		total += len(r.msg) + len(r.want)
		if r.corr != nil {
			total += len(r.corr.msg) + len(r.corr.want)
		}
	}
	block := make([]byte, 0, total)
	move := func(b []byte) []byte {
		start := len(block)
		block = append(block, b...)
		return block[start:len(block):len(block)]
	}
	for i := range tail {
		r := &tail[i]
		r.msg, r.want = move(r.msg), move(r.want)
		if r.corr != nil {
			r.corr.msg, r.corr.want = move(r.corr.msg), move(r.corr.want)
		}
	}
	q.packed = len(q.list)
	return q.list
}

// decodeItems recovers the checked items from a request body, for
// replaying the scoring layer.
func decodeItems(body []byte, batch bool) ([]core.BatchItem, error) {
	var items []serve.BatchItemJSON
	if batch {
		var req serve.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		items = req.Items
	} else {
		var it serve.BatchItemJSON
		if err := json.Unmarshal(body, &it); err != nil {
			return nil, err
		}
		items = []serve.BatchItemJSON{it}
	}
	out := make([]core.BatchItem, len(items))
	for i, it := range items {
		out[i] = core.BatchItem{Observation: it.Observation, Location: it.Location.Point()}
	}
	return out, nil
}

// trainSpecs derives n distinct registrations of the paper spec with
// the given trial count, their training seeds drawn from r.
func trainSpecs(r *rng.Rand, n, trials int) []serve.DetectorSpec {
	specs := make([]serve.DetectorSpec, n)
	for i := range specs {
		specs[i] = defaultSpec(trials)
		specs[i].Train.Seed = r.Uint64()
	}
	return specs
}
