package client

// Wire types of the ladd v2 serving API, defined here without importing
// the server packages so the client is a self-contained dependency. The
// JSON shapes are locked to the server's by golden tests
// (client_compat_test.go marshals both sides and compares); change them
// together.

// Point is a planar location in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Rect is the deployment field, as the server's deploy.Config encodes
// it (capitalized keys: the server type carries no JSON tags).
type Rect struct {
	Min RectCorner `json:"Min"`
	Max RectCorner `json:"Max"`
}

// RectCorner is one corner of the field rectangle.
type RectCorner struct {
	X float64 `json:"X"`
	Y float64 `json:"Y"`
}

// Layout selects the deployment-point arrangement. Values match the
// server's deploy.Layout constants.
type Layout int

const (
	// LayoutGrid places deployment points at cell centers.
	LayoutGrid Layout = iota
	// LayoutHex offsets alternate rows by half a cell.
	LayoutHex
	// LayoutRandom scatters deployment points uniformly (seeded).
	LayoutRandom
)

// Deployment mirrors the server's deploy.Config: the deployment
// knowledge a detector is trained over.
type Deployment struct {
	Field      Rect    `json:"Field"`
	GroupsX    int     `json:"GroupsX"`
	GroupsY    int     `json:"GroupsY"`
	GroupSize  int     `json:"GroupSize"`
	Sigma      float64 `json:"Sigma"`
	Range      float64 `json:"Range"`
	Layout     Layout  `json:"Layout"`
	RandomSeed uint64  `json:"RandomSeed"`
}

// TrainSpec controls threshold training.
type TrainSpec struct {
	Trials      int     `json:"trials"`
	Percentile  float64 `json:"percentile"`
	Seed        uint64  `json:"seed"`
	KeepInField bool    `json:"keep_in_field"`
	// SimEpoch selects the server's simulation epoch. 0 (omitted, the
	// default) and 2 train on the fast table-sampler path, whose results
	// are equivalent to epoch 1's at the distribution level only, and
	// name the same resource. 1 trains on the bit-identity contract
	// (identical results across server builds back to the scalar seed)
	// and keeps the id servers gave the spec before epoch 2 became the
	// default.
	SimEpoch int `json:"sim_epoch,omitempty"`
}

// DetectorSpec fully determines a detector resource: deployment
// knowledge, metric, and training configuration. Two identical specs
// always name the same server-side resource.
type DetectorSpec struct {
	Deployment Deployment `json:"deployment"`
	Metric     string     `json:"metric"`
	Train      TrainSpec  `json:"train"`
}

// PaperDeployment returns the paper's evaluation setup: 1000×1000 m
// field, 10×10 groups of 300 nodes, σ = 50, R = 50.
func PaperDeployment() Deployment {
	return Deployment{
		Field:     Rect{Min: RectCorner{0, 0}, Max: RectCorner{1000, 1000}},
		GroupsX:   10,
		GroupsY:   10,
		GroupSize: 300,
		Sigma:     50,
		Range:     50,
		Layout:    LayoutGrid,
	}
}

// PaperSpec returns the spec cmd/ladd trains by default: the paper
// deployment scored with the diff metric, 4000 in-field trials at the
// 99th percentile, seed 1. Chain the With* builders to vary it.
func PaperSpec() DetectorSpec {
	return DetectorSpec{
		Deployment: PaperDeployment(),
		Metric:     "diff",
		Train:      TrainSpec{Trials: 4000, Percentile: 99, Seed: 1, KeepInField: true},
	}
}

// WithMetric returns the spec scored with metric ("diff", "add-all",
// "probability").
func (s DetectorSpec) WithMetric(metric string) DetectorSpec {
	s.Metric = metric
	return s
}

// WithTrials returns the spec trained over n Monte-Carlo trials.
func (s DetectorSpec) WithTrials(n int) DetectorSpec {
	s.Train.Trials = n
	return s
}

// WithPercentile returns the spec thresholded at the τ-percentile of
// the benign score distribution (100−τ is the target false-positive
// percentage).
func (s DetectorSpec) WithPercentile(tau float64) DetectorSpec {
	s.Train.Percentile = tau
	return s
}

// WithSeed returns the spec trained with a different RNG seed.
func (s DetectorSpec) WithSeed(seed uint64) DetectorSpec {
	s.Train.Seed = seed
	return s
}

// WithSimEpoch returns the spec trained under the given simulation
// epoch (0 or 2 = fast distribution-level path, the default; 1 =
// bit-identity contract).
func (s DetectorSpec) WithSimEpoch(epoch int) DetectorSpec {
	s.Train.SimEpoch = epoch
	return s
}

// WithDeployment returns the spec over different deployment knowledge.
func (s DetectorSpec) WithDeployment(d Deployment) DetectorSpec {
	s.Deployment = d
	return s
}

// DetectorState is a detector resource's lifecycle phase.
type DetectorState string

// Lifecycle states.
const (
	StatePending  DetectorState = "pending"
	StateTraining DetectorState = "training"
	StateReady    DetectorState = "ready"
	StateFailed   DetectorState = "failed"
)

// TrainInfo is the training slice of a detector's status.
type TrainInfo struct {
	Seconds      float64 `json:"seconds"`
	BenignScores int     `json:"benign_scores"`
}

// Detector is a detector resource's status as the server reports it.
type Detector struct {
	ID         string        `json:"id"`
	State      DetectorState `json:"state"`
	Spec       DetectorSpec  `json:"spec"`
	Threshold  *float64      `json:"threshold,omitempty"`
	Percentile float64       `json:"percentile"`
	Train      *TrainInfo    `json:"train,omitempty"`
	Error      string        `json:"error,omitempty"`
	// RetryAfterMS hints when to poll again; the server scales it with
	// the resource's queue position.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// QueuePosition is the resource's place in the server's training
	// scheduler (states "pending" and "training"; nil otherwise). 0 means
	// executing or next in line.
	QueuePosition *int `json:"queue_position,omitempty"`
	// TrialsDone counts training trials already completed — checkpointed
	// progress that survives a server crash.
	TrialsDone int `json:"trials_done,omitempty"`
	// EtaMS estimates remaining training time in milliseconds; 0 until
	// the scheduler has a throughput sample.
	EtaMS int64 `json:"eta_ms,omitempty"`
}

// Ready reports whether the resource serves checks.
func (d Detector) Ready() bool { return d.State == StateReady }

// Verdict is one anomaly check's outcome.
type Verdict struct {
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Alarm     bool    `json:"alarm"`
}

// Item is one observation/claimed-location pair of a batch check.
type Item struct {
	Observation []int `json:"observation"`
	Location    Point `json:"location"`
}

// Correction is the outcome of a /correct call: the re-estimated
// location.
type Correction struct {
	Location Point `json:"location"`
}

// APIError is the server's structured error. It implements error; use
// errors.As to recover the code from any client method's failure.
type APIError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// HTTPStatus is the response status the error arrived with (set by
	// the client, not part of the wire body).
	HTTPStatus int `json:"-"`
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// Error codes of the serving API (the server's code↔status table).
const (
	CodeInvalidArgument  = "invalid_argument"
	CodeUnauthenticated  = "unauthenticated"
	CodePermissionDenied = "permission_denied"
	CodeNotFound         = "not_found"
	CodeTooLarge         = "too_large"
	CodeDetectorTraining = "detector_training"
	CodeDetectorFailed   = "detector_failed"
	CodePoolFull         = "pool_full"
	CodeInternal         = "internal"
)
