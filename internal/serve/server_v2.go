package serve

// The v2 resource API: detectors are named, stateful resources with an
// asynchronous training lifecycle.
//
//	POST   /v2/detectors                  register a spec; returns {id, state} immediately
//	GET    /v2/detectors                  list resident resources
//	GET    /v2/detectors/{id}             status: state, threshold, train stats, error
//	DELETE /v2/detectors/{id}             evict (mid-training flights are detached)
//	POST   /v2/detectors/{id}/check       score one observation
//	POST   /v2/detectors/{id}/check/batch score many observations
//	POST   /v2/detectors/{id}/correct     re-estimate a location after an alarm (core.Corrector)
//	POST   /v2/detectors/{id}/rethreshold re-cut the percentile from retained benign scores
//
// Requests against a still-training resource answer 202 Accepted with a
// Retry-After hint instead of blocking the connection for the whole
// Monte-Carlo run.

import (
	"net/http"

	"repro/internal/core"
)

// TrainInfoJSON is the training slice of a detector resource's status.
type TrainInfoJSON struct {
	// Seconds is the training run's wall time.
	Seconds float64 `json:"seconds"`
	// BenignScores is the retained benign sample size /rethreshold cuts
	// from.
	BenignScores int `json:"benign_scores"`
}

// DetectorJSON is the wire form of a detector resource.
type DetectorJSON struct {
	ID    string       `json:"id"`
	State string       `json:"state"`
	Spec  DetectorSpec `json:"spec"`
	// Threshold and Percentile are the current operating point; present
	// once the resource is ready. Percentile starts at the spec's
	// training percentile and moves on /rethreshold.
	Threshold  *float64       `json:"threshold,omitempty"`
	Percentile float64        `json:"percentile"`
	Train      *TrainInfoJSON `json:"train,omitempty"`
	// Error is the training failure message (state "failed").
	Error string `json:"error,omitempty"`
	// RetryAfterMS hints when to poll again (states "pending" and
	// "training"). It scales with the resource's queue position, so a
	// client polling a deeply queued registration backs off instead of
	// hammering the head of the line.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// QueuePosition is the resource's place in the training scheduler's
	// round-robin ring (states "pending" and "training"; absent
	// otherwise). 0 means the job is executing or next in line.
	QueuePosition *int `json:"queue_position,omitempty"`
	// TrialsDone counts Monte-Carlo trials already completed by the
	// training job — checkpointed progress that survives a crash.
	TrialsDone int `json:"trials_done,omitempty"`
	// EtaMS estimates the remaining training time in milliseconds from
	// the scheduler's observed per-trial throughput and current
	// contention; 0 until a throughput sample exists.
	EtaMS int64 `json:"eta_ms,omitempty"`
}

func (s *Server) detectorJSON(st DetectorStatus) DetectorJSON {
	out := DetectorJSON{
		ID:         st.ID,
		State:      string(st.State),
		Spec:       st.Spec,
		Percentile: st.Percentile,
	}
	switch st.State {
	case StateReady:
		th := st.Threshold
		out.Threshold = &th
		out.Train = &TrainInfoJSON{Seconds: st.TrainSeconds, BenignScores: st.BenignScores}
	case StateFailed:
		if st.Err != nil {
			out.Error = st.Err.Error()
		}
	default:
		out.RetryAfterMS = s.pool.RetryAfter(st).Milliseconds()
		if st.QueuePosition >= 0 {
			pos := st.QueuePosition
			out.QueuePosition = &pos
			out.TrialsDone = st.TrialsDone
			out.EtaMS = st.EtaMS
		}
	}
	return out
}

// RegisterRequest is the POST /v2/detectors payload.
type RegisterRequest struct {
	Spec DetectorSpec `json:"spec"`
}

// ListResponse is the GET /v2/detectors payload.
type ListResponse struct {
	Detectors []DetectorJSON `json:"detectors"`
}

// CorrectRequest asks for a location re-estimate from an observation —
// the paper's stated future work ("not only detect the anomalies, but
// also correct the errors"), served over HTTP for the first time. The
// correction is the beaconless MLE of the observation itself,
// discarding the attacked localization result entirely.
type CorrectRequest struct {
	Observation []int `json:"observation"`
}

// CorrectResponse carries the re-estimated location.
type CorrectResponse struct {
	Location PointJSON `json:"location"`
}

// RethresholdRequest re-cuts the operating point from the retained
// benign sample.
type RethresholdRequest struct {
	Percentile float64 `json:"percentile"`
}

// v2Detector resolves {id} to a ready detector, answering 404 for
// unknown ids, 202+Retry-After for pending/training resources, and 409
// for failed ones.
func (s *Server) v2Detector(w http.ResponseWriter, r *http.Request) (*core.Detector, bool) {
	id := r.PathValue("id")
	det, st, ready := s.pool.Detector(id)
	if ready {
		return det, true
	}
	if st.ID == "" {
		writeAPIError(w, apiErrorf(CodeNotFound, "no detector %q", id))
		return nil, false
	}
	switch st.State {
	case StateFailed:
		msg := "training failed"
		if st.Err != nil {
			msg = st.Err.Error()
		}
		writeAPIError(w, apiErrorf(CodeDetectorFailed, "detector %q failed: %s", id, msg))
	default:
		e := apiErrorf(CodeDetectorTraining, "detector %q is %s", id, st.State)
		e.RetryAfterMS = s.pool.RetryAfter(st).Milliseconds()
		writeAPIError(w, e)
	}
	return nil, false
}

func (s *Server) handleV2Register(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	c := s.decode(w, r, &req)
	if c == nil {
		return
	}
	defer c.release()
	if !s.validateRequestSpec(w, req.Spec) {
		return
	}
	st, created, err := s.pool.Register(req.Spec)
	if err != nil {
		writeAPIError(w, toAPIError(err))
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, s.detectorJSON(st))
}

func (s *Server) handleV2List(w http.ResponseWriter, r *http.Request) {
	sts := s.pool.List()
	resp := ListResponse{Detectors: make([]DetectorJSON, len(sts))}
	for i, st := range sts {
		resp.Detectors[i] = s.detectorJSON(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV2Get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.pool.Lookup(id)
	if !ok {
		writeAPIError(w, apiErrorf(CodeNotFound, "no detector %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.detectorJSON(st))
}

func (s *Server) handleV2Delete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.pool.Delete(id) {
		writeAPIError(w, apiErrorf(CodeNotFound, "no detector %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleV2Check(w http.ResponseWriter, r *http.Request) {
	var req BatchItemJSON
	c := s.decode(w, r, &req)
	if c == nil {
		return
	}
	defer c.release()
	det, ok := s.v2Detector(w, r)
	if !ok {
		return
	}
	s.checkOne(w, c, det, req.Observation, req.Location)
}

func (s *Server) handleV2CheckBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	c := s.decode(w, r, &req)
	if c == nil {
		return
	}
	defer c.release()
	det, ok := s.v2Detector(w, r)
	if !ok {
		return
	}
	s.scoreBatch(w, c, det, req.Items)
}

func (s *Server) handleV2Correct(w http.ResponseWriter, r *http.Request) {
	var req CorrectRequest
	c := s.decode(w, r, &req)
	if c == nil {
		return
	}
	defer c.release()
	det, ok := s.v2Detector(w, r)
	if !ok {
		return
	}
	if err := checkObservation(det, req.Observation, -1); err != nil {
		writeAPIError(w, apiErrorf(CodeInvalidArgument, "%v", err))
		return
	}
	corr, ok := s.pool.Corrector(r.PathValue("id"))
	if !ok {
		// The resource raced away between v2Detector and here.
		writeAPIError(w, apiErrorf(CodeNotFound, "no detector %q", r.PathValue("id")))
		return
	}
	p, err := corr.Correct(req.Observation)
	if err != nil {
		// An isolated observation (no audible neighbors) has no MLE;
		// that is a property of the input, not the server.
		writeAPIError(w, apiErrorf(CodeInvalidArgument, "correction impossible: %v", err))
		return
	}
	s.pool.corrected.Inc()
	writeEncoded(w, c, c.encodeCorrection(CorrectResponse{Location: PointJSON{X: p.X, Y: p.Y}}))
}

func (s *Server) handleV2Rethreshold(w http.ResponseWriter, r *http.Request) {
	var req RethresholdRequest
	c := s.decode(w, r, &req)
	if c == nil {
		return
	}
	defer c.release()
	st, err := s.pool.Rethreshold(r.PathValue("id"), req.Percentile)
	if err != nil {
		writeAPIError(w, toAPIError(err))
		return
	}
	s.rethresholds.Inc()
	writeJSON(w, http.StatusOK, s.detectorJSON(st))
}
