package serve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
)

// PointJSON is the wire form of a claimed location.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Point converts to the geometry type.
func (p PointJSON) Point() geom.Point { return geom.Pt(p.X, p.Y) }

// CheckResponse is one verdict on the wire.
type CheckResponse struct {
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Alarm     bool    `json:"alarm"`
}

// BatchItemJSON is one observation/location pair of a batch request.
type BatchItemJSON struct {
	Observation []int     `json:"observation"`
	Location    PointJSON `json:"location"`
}

// BatchRequest is the check/batch payload: items scored by the detector
// the path names.
type BatchRequest struct {
	Items []BatchItemJSON `json:"items"`
}

// BatchResponse carries per-item verdicts in request order.
type BatchResponse struct {
	Results []CheckResponse `json:"results"`
}

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Default is the detector spec Warmup trains; it serves under the
	// resource id Default.ID(). It is operator-chosen and exempt from the
	// per-request caps below.
	Default DetectorSpec
	// APIToken, when non-empty, gates the mutating v2 endpoints
	// (register, delete, rethreshold) behind `Authorization: Bearer
	// <token>`: a missing token is 401, a wrong one 403. Checks, status
	// reads, /healthz and /metrics stay open. Empty disables auth.
	APIToken string
	// MaxBatch bounds items per batch request; 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes bounds request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxTrainTrials caps training trials a request-supplied spec may
	// ask for; 0 means DefaultMaxTrainTrials.
	MaxTrainTrials int
	// MaxGroups caps GroupsX*GroupsY of a request-supplied deployment;
	// 0 means DefaultMaxGroups.
	MaxGroups int
	// MaxGroupSize caps nodes per group of a request-supplied
	// deployment; 0 means DefaultMaxGroupSize.
	MaxGroupSize int
	// MaxCachedDetectors caps live pool entries (ready detectors are
	// never evicted implicitly); 0 means DefaultMaxCachedDetectors. Only
	// consulted when NewServer builds the pool itself.
	MaxCachedDetectors int
	// MaxConcurrentTrainings caps detector training runs in flight at
	// once: the fair-share scheduler's concurrent batches. A batch gets
	// the training budget divided by the jobs that can run at once (at
	// most this cap), so parallel cold starts share the machine. The
	// budget is GOMAXPROCS, one core fewer while checks are served, so a
	// lone job gets every core while none are. 0 means
	// DefaultTrainConcurrency. Only consulted when NewServer builds the
	// pool itself.
	MaxConcurrentTrainings int
	// SchedBatchTrials sets how many Monte-Carlo trials a training job
	// runs per scheduler turn — the fairness/checkpoint granularity: the
	// scheduler round-robins queued jobs between batches and checkpoints
	// trial progress after each one. 0 means the scheduler default;
	// negative is clamped to it. Only consulted when NewServer builds
	// the pool itself.
	SchedBatchTrials int
	// ExpCacheBudgetBytes caps the bytes ALL detectors' expectation
	// caches may hold between them (resident entries plus armed PMF
	// tables); 0 means unlimited — each detector's cache is then bounded
	// only by the entry capacity core.NewDetector derives from its group
	// count. Only consulted when NewServer builds the pool itself.
	ExpCacheBudgetBytes int64
}

// DefaultMaxBatch bounds batch size when ServerConfig leaves it zero.
const DefaultMaxBatch = 4096

// DefaultMaxBodyBytes bounds request bodies when ServerConfig leaves it
// zero (a 4096-item batch over a 100-group deployment is ~1.6 MB).
const DefaultMaxBodyBytes = 16 << 20

// DefaultMaxTrainTrials bounds request-supplied training cost: training
// time is linear in trials, and a client asking for billions would pin
// every CPU for hours behind one cache entry.
const DefaultMaxTrainTrials = 100_000

// DefaultMaxGroups bounds request-supplied deployment size: the model
// allocates per-group state and every observation carries one count per
// group.
const DefaultMaxGroups = 4096

// DefaultMaxGroupSize bounds request-supplied nodes per group (binomial
// sampling cost during training scales with it).
const DefaultMaxGroupSize = 100_000

// DefaultMaxCachedDetectors bounds resident trained detectors; a seed
// sweep would otherwise mint unbounded never-evicted cache entries.
const DefaultMaxCachedDetectors = 64

// Server is the HTTP serving layer. Create with NewServer, mount
// Handler() on an http.Server. Safe for concurrent use. Its request and
// served-work series live in the pool's metrics registry, which
// GET /metrics writes; mounting a route registers its endpoint's series,
// so they exist at zero from boot.
type Server struct {
	cfg   ServerConfig
	pool  *DetectorPool
	ready atomic.Bool

	// rethresholds counts operating-point re-cuts, in the pool's
	// registry; the pool owns the scored and corrected counters.
	rethresholds *metrics.Counter
}

// NewServer validates the default spec and wires a server around the
// pool. The default detector is NOT trained yet; call Warmup (cmd/ladd
// does, before accepting traffic) or let the first request pay it.
func NewServer(cfg ServerConfig, pool *DetectorPool) (*Server, error) {
	if err := cfg.Default.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid default detector spec: %w", err)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxTrainTrials <= 0 {
		cfg.MaxTrainTrials = DefaultMaxTrainTrials
	}
	if cfg.MaxGroups <= 0 {
		cfg.MaxGroups = DefaultMaxGroups
	}
	if cfg.MaxGroupSize <= 0 {
		cfg.MaxGroupSize = DefaultMaxGroupSize
	}
	if cfg.MaxCachedDetectors <= 0 {
		cfg.MaxCachedDetectors = DefaultMaxCachedDetectors
	}
	if pool == nil {
		pool = NewDetectorPool(cfg.MaxCachedDetectors)
		pool.SetTrainConcurrency(cfg.MaxConcurrentTrainings)
		pool.SetSchedBatchTrials(cfg.SchedBatchTrials)
		pool.SetExpCacheByteBudget(cfg.ExpCacheBudgetBytes)
	}
	return &Server{
		cfg:          cfg,
		pool:         pool,
		rethresholds: pool.reg.Counter("ladd_rethresholds_total", "Operating-point re-cuts served (/v2 rethreshold verb)."),
	}, nil
}

// Pool exposes the detector pool.
func (s *Server) Pool() *DetectorPool { return s.pool }

// Warmup trains the default detector and marks the server ready.
// /healthz reports 503 until warmup completes, so load balancers do not
// route traffic into a multi-second cold training run.
func (s *Server) Warmup() error {
	if _, err := s.pool.await(s.cfg.Default); err != nil {
		return err
	}
	s.ready.Store(true)
	return nil
}

// Handler returns the route table: the v2 resource API and the
// operational endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/detectors", s.instrument("v2_register", s.requireAuth(s.handleV2Register)))
	mux.HandleFunc("GET /v2/detectors", s.instrument("v2_list", s.handleV2List))
	mux.HandleFunc("GET /v2/detectors/{id}", s.instrument("v2_get", s.handleV2Get))
	mux.HandleFunc("DELETE /v2/detectors/{id}", s.instrument("v2_delete", s.requireAuth(s.handleV2Delete)))
	mux.HandleFunc("POST /v2/detectors/{id}/check", s.instrument("v2_check", s.handleV2Check))
	mux.HandleFunc("POST /v2/detectors/{id}/check/batch", s.instrument("v2_check_batch", s.handleV2CheckBatch))
	mux.HandleFunc("POST /v2/detectors/{id}/correct", s.instrument("v2_correct", s.handleV2Correct))
	mux.HandleFunc("POST /v2/detectors/{id}/rethreshold", s.instrument("v2_rethreshold", s.requireAuth(s.handleV2Rethreshold)))
	// Operational.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// authError checks the request's bearer token against the configured
// one: nil when authorized (or when no token is configured — development
// mode), 401 when the token is missing, 403 when it does not match.
// Token comparison is constant-time.
func (s *Server) authError(r *http.Request) *APIError {
	if s.cfg.APIToken == "" {
		return nil
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if auth == "" || !strings.HasPrefix(auth, prefix) {
		return apiErrorf(CodeUnauthenticated, "missing bearer token")
	}
	got := strings.TrimPrefix(auth, prefix)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.APIToken)) != 1 {
		return apiErrorf(CodePermissionDenied, "bearer token does not match")
	}
	return nil
}

// requireAuth gates a mutating endpoint behind the configured bearer
// token.
func (s *Server) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.authError(r); err != nil {
			writeAPIError(w, err)
			return
		}
		h(w, r)
	}
}

// statusRecorder captures the status code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	//lint:ignore ladvet/errcodes pass-through middleware: records the status chosen upstream, does not pick one
	r.ResponseWriter.WriteHeader(code)
}

// instrument counts and times the endpoint's requests. Its series are
// registered here, at mount time, so they exist (at zero) from boot.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := newEndpointMetrics(s.pool.reg, name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		m.observe(rec.status, time.Since(start))
	}
}

// writeJSON encodes body with encoding/json and sends it with status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		writeAPIError(w, apiErrorf(CodeInternal, "encoding response: %v", err))
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody sends an encoded JSON body with status. The body is complete
// before the status goes out, so an encoding failure can still answer
// 500, and its length is declared: net/http would send a body over its
// 2 kB buffer chunked. Both header values share one array, one
// allocation.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	vals := [...]string{"application/json", strconv.Itoa(len(body))}
	h["Content-Type"], h["Content-Length"] = vals[:1:1], vals[1:]
	//lint:ignore ladvet/errcodes this IS the envelope writer every handler and writeAPIError funnel through
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeEncoded sends the response the codec encoded into c.out, or a 500
// when encoding failed on a non-finite value.
func writeEncoded(w http.ResponseWriter, c *scratch, ok bool) {
	if !ok {
		writeAPIError(w, apiErrorf(CodeInternal, "encoding response: non-finite value"))
		return
	}
	writeBody(w, http.StatusOK, c.out)
}

// decode reads the request body, capped at MaxBodyBytes, into pooled
// scratch and decodes it into dst; non-whitespace after the value is an
// error. On failure it writes the error response and returns nil. The
// caller releases the scratch once its response is written: decoded
// values may alias it.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) *scratch {
	c := getScratch()
	err := c.readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err == nil {
		err = c.decodeBody(dst)
	}
	if err != nil {
		c.release()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeAPIError(w, apiErrorf(CodeTooLarge, "request body over %d bytes", s.cfg.MaxBodyBytes))
		} else {
			writeAPIError(w, apiErrorf(CodeInvalidArgument, "decoding request: %v", err))
		}
		return nil
	}
	return c
}

// capSpec enforces the server's resource ceilings on a request-supplied
// spec: training cost and model size are attacker-controlled otherwise.
func (s *Server) capSpec(spec DetectorSpec) error {
	if spec.Train.Trials > s.cfg.MaxTrainTrials {
		return fmt.Errorf("train.trials %d exceeds server limit %d", spec.Train.Trials, s.cfg.MaxTrainTrials)
	}
	// Cap each axis before the product: GroupsX*GroupsY can overflow int
	// and wrap under the limit for absurd client-chosen values.
	if spec.Deployment.GroupsX > s.cfg.MaxGroups || spec.Deployment.GroupsY > s.cfg.MaxGroups {
		return fmt.Errorf("deployment axis of %d×%d groups exceeds server limit %d",
			spec.Deployment.GroupsX, spec.Deployment.GroupsY, s.cfg.MaxGroups)
	}
	if groups := spec.Deployment.GroupsX * spec.Deployment.GroupsY; groups > s.cfg.MaxGroups {
		return fmt.Errorf("deployment has %d groups, server limit is %d", groups, s.cfg.MaxGroups)
	}
	if spec.Deployment.GroupSize > s.cfg.MaxGroupSize {
		return fmt.Errorf("deployment group size %d exceeds server limit %d", spec.Deployment.GroupSize, s.cfg.MaxGroupSize)
	}
	return nil
}

// validateRequestSpec runs validation + resource caps on a
// client-supplied spec, writing the 400 on failure.
func (s *Server) validateRequestSpec(w http.ResponseWriter, spec DetectorSpec) bool {
	if err := spec.Validate(); err != nil {
		writeAPIError(w, apiErrorf(CodeInvalidArgument, "%v", err))
		return false
	}
	if err := s.capSpec(spec); err != nil {
		writeAPIError(w, apiErrorf(CodeInvalidArgument, "%v", err))
		return false
	}
	return true
}

// checkObservation validates one observation against the detector's
// deployment (wrong group count means the client disagrees about the
// deployment and every score would be garbage). idx < 0 means a
// single-check request, whose errors should not mention batch items.
func checkObservation(det *core.Detector, o []int, idx int) error {
	n := det.Model().NumGroups()
	if len(o) != n {
		return itemError(idx, fmt.Errorf("observation has %d groups, deployment has %d", len(o), n))
	}
	for gi, c := range o {
		if c < 0 {
			return itemError(idx, fmt.Errorf("negative neighbor count %d for group %d", c, gi))
		}
	}
	return nil
}

// itemError prefixes err with its batch item index (idx >= 0).
func itemError(idx int, err error) error {
	if idx < 0 {
		return err
	}
	return fmt.Errorf("item %d: %w", idx, err)
}

// checkOne validates and scores one observation and writes the
// response.
func (s *Server) checkOne(w http.ResponseWriter, c *scratch, det *core.Detector, o []int, loc PointJSON) {
	if err := checkObservation(det, o, -1); err != nil {
		writeAPIError(w, apiErrorf(CodeInvalidArgument, "%v", err))
		return
	}
	v := det.CheckPooled(o, loc.Point())
	s.pool.scored.Inc()
	writeEncoded(w, c, c.encodeVerdict(v))
}

// scoreBatch validates and scores one batch against det. Items and
// verdicts live in c's pooled scratch. It writes the response.
func (s *Server) scoreBatch(w http.ResponseWriter, c *scratch, det *core.Detector, reqItems []BatchItemJSON) {
	if len(reqItems) == 0 {
		writeAPIError(w, apiErrorf(CodeInvalidArgument, "batch has no items"))
		return
	}
	if len(reqItems) > s.cfg.MaxBatch {
		writeAPIError(w, apiErrorf(CodeInvalidArgument,
			"batch has %d items, max is %d", len(reqItems), s.cfg.MaxBatch))
		return
	}
	c.batch = c.batch[:0]
	for i, it := range reqItems {
		if err := checkObservation(det, it.Observation, i); err != nil {
			writeAPIError(w, apiErrorf(CodeInvalidArgument, "%v", err))
			return
		}
		c.batch = append(c.batch, core.BatchItem{Observation: it.Observation, Location: it.Location.Point()})
	}
	if cap(c.verdicts) < len(c.batch) {
		c.verdicts = make([]core.Verdict, len(c.batch))
	}
	c.verdicts = c.verdicts[:len(c.batch)]
	det.CheckBatchInto(c.verdicts, c.batch)
	s.pool.scored.Add(uint64(len(c.batch)))
	writeEncoded(w, c, c.encodeBatch(c.verdicts))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "warming up"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.pool.reg.WriteTo(w)
}
