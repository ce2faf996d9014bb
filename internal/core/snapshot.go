package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// Snapshot is the durable form of a detector: everything the serving
// layer needs to adopt it after a restart with zero retraining, or to
// resume its training where a crash left it. The paper's trained state
// is a pure function of deployment knowledge and training configuration
// — a (threshold, benign-sample) pair — so a snapshot carries the full
// deployment config (to rebuild the model), the training parameters (to
// re-derive the resource identity), the current operating point, and
// the benign sample (so rethresholding survives restarts). Expectation
// caches and PMF tables are deliberately NOT captured: they are rebuilt
// lazily on first use.
//
// A record whose TrialsDone is below Trials is a training checkpoint: a
// snapshot that has not finished. It carries no operating point yet,
// only the scores of the trials already run (TrainRun.CheckpointInto
// fills it, ResumeTrainRun continues from it). Because per-trial RNG
// substreams are pre-derived from the master seed, those scores are all
// the state a bit-identical resume needs.
//
// The wire encoding is versioned, canonical (every accepted
// current-version byte string re-encodes bit-identically — the
// FuzzSnapshotDecode property; accepted older versions re-encode in the
// current form), and checksummed, and decoding never panics on hostile
// bytes.
type Snapshot struct {
	// Deployment is the full deployment configuration; the model is
	// rebuilt from it on restore.
	Deployment deploy.Config
	// DeploymentHash is Deployment.Hash() at capture time. A decoded
	// snapshot whose stored hash disagrees with the recomputed one was
	// trained under a different hash-encoding epoch (or tampered with)
	// and must not be adopted; VerifyDeploymentHash checks it.
	DeploymentHash string
	// SpecKey is the serving layer's canonical spec key. Opaque to core;
	// the pool uses it to verify the snapshot still names the resource
	// it is stored under.
	SpecKey string
	// Metric is the detection metric by Name().
	Metric string
	// Trials, TrainPercentile, Seed and KeepInField are the training
	// configuration the threshold was derived with.
	Trials          int
	TrainPercentile float64
	Seed            uint64
	KeepInField     bool
	// SimEpoch is the simulation epoch the benign sample was generated
	// under (core.TrainConfig.SimEpoch): 1 for the bit-identity contract,
	// 2 for the table-sampler/full-poll fast path. Version-1 snapshots
	// predate the field and decode as epoch 1 — exactly what every
	// pre-epoch build trained. Adopted detectors carry it so operators
	// can tell which contract produced a stored threshold.
	SimEpoch int
	// TrialsDone is the number of completed leading trials: Trials for a
	// finished detector (and for every version-1 and -2 record), fewer
	// for a training checkpoint.
	TrialsDone int
	// Threshold and Percentile are the current operating point — they
	// track /rethreshold, so they may differ from the τ the detector was
	// originally trained at. A checkpoint holds 0 and the training τ.
	Threshold  float64
	Percentile float64
	// TrainSeconds is the wall time of the original training run.
	TrainSeconds float64
	// BenignSample is the retained benign score distribution, ascending,
	// from which rethresholding after adoption re-cuts percentiles. A
	// checkpoint holds the scores of trials [0, TrialsDone) in trial
	// order instead: the percentile cut at the end of training sorts a
	// copy, exactly like an uninterrupted run.
	BenignSample []float64
}

// Partial reports whether s is a training checkpoint rather than a
// finished detector.
func (s *Snapshot) Partial() bool { return s.TrialsDone < s.Trials }

// TrainCheckpoint is the name a checkpoint had while it was a type of
// its own. The benchmark harness under bench/ still spells it; the
// alias goes when that harness is next edited.
type TrainCheckpoint = Snapshot

// Snapshot decode errors. ErrSnapshotCorrupt covers structural damage
// (bad magic, checksum mismatch, truncation, impossible field values);
// ErrSnapshotVersion marks an encoding epoch this build does not speak
// (version skew, not damage); ErrSnapshotMismatch marks a structurally
// valid snapshot whose stored deployment hash disagrees with the hash
// recomputed from its own config, or a checkpoint taken under another
// training configuration than the run resuming from it. The serving
// layer quarantines all three but counts them separately.
var (
	ErrSnapshotCorrupt  = errors.New("core: snapshot corrupt")
	ErrSnapshotVersion  = errors.New("core: unsupported snapshot version")
	ErrSnapshotMismatch = errors.New("core: snapshot deployment hash mismatch")
)

// snapshotMagic brands the first 7 bytes of every snapshot; the 8th
// byte is the encoding version.
const snapshotMagic = "LADSNAP"

// legacyCheckpointMagic branded the training checkpoints older builds
// kept next to their snapshots. This build decodes them as version skew
// (ErrSnapshotVersion), so the serving layer quarantines them as stale
// and their training restarts from trial zero.
const legacyCheckpointMagic = "LADCKPT"

// snapshotVersion is the current encoding epoch. Bump it when the field
// layout changes; decoders reject versions they do not speak with
// ErrSnapshotVersion so stale snapshots fall through to retraining
// instead of being misread. Version 2 added the simulation-epoch field
// and version 3 TrialsDone; version-1 and -2 snapshots still decode (v1
// as epoch 1, both as finished detectors) but re-encode in the current
// form — the canonical bit-identical re-encode property holds for
// current-version inputs only.
const snapshotVersion = 3

// maxSnapshotString bounds the length of encoded string fields (the
// hex digests are 64 bytes; metric names shorter). Anything larger in a
// length prefix is hostile input, rejected before allocation.
const maxSnapshotString = 256

// Snapshot captures the detector-owned slice of a snapshot: the
// deployment config (and its hash), the metric, and the live threshold.
// The caller — normally the serving pool — fills in the training
// parameters, operating point, and benign sample it owns, then Encode.
func (d *Detector) Snapshot() *Snapshot {
	cfg := d.model.Config()
	return &Snapshot{
		Deployment:     cfg,
		DeploymentHash: cfg.Hash(),
		Metric:         d.metric.Name(),
		Threshold:      d.Threshold(),
	}
}

// RestoreDetector rebuilds a servable detector from a snapshot: the
// deployment model is reconstructed from the embedded config (g-table
// and spatial index included), the metric resolved by name, and the
// snapshot's threshold installed. The expectation cache starts empty
// and warms lazily, exactly like a freshly trained detector's. The
// snapshot is fully validated (including the deployment-hash check)
// before any model construction.
func RestoreDetector(s *Snapshot) (*Detector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Partial() {
		return nil, fmt.Errorf("%w: checkpoint at %d of %d trials has no threshold", ErrSnapshotCorrupt, s.TrialsDone, s.Trials)
	}
	if err := s.VerifyDeploymentHash(); err != nil {
		return nil, err
	}
	model, err := deploy.New(s.Deployment)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding model: %v", ErrSnapshotCorrupt, err)
	}
	metric := MetricByName(s.Metric)
	if metric == nil {
		return nil, fmt.Errorf("%w: unknown metric %q", ErrSnapshotCorrupt, s.Metric)
	}
	return NewDetector(model, metric, s.Threshold), nil
}

// VerifyDeploymentHash recomputes the deployment hash from the embedded
// config and compares it to the stored one, wrapping
// ErrSnapshotMismatch on disagreement.
func (s *Snapshot) VerifyDeploymentHash() error {
	if got := s.Deployment.Hash(); got != s.DeploymentHash {
		return fmt.Errorf("%w: stored %.12s… recomputed %.12s…", ErrSnapshotMismatch, s.DeploymentHash, got)
	}
	return nil
}

// Validate checks the structural invariants every adoptable snapshot
// must satisfy — the same checks the strict decoder applies, usable on
// hand-built snapshots before encoding. It does NOT verify the
// deployment hash (VerifyDeploymentHash does; decode must be able to
// surface a mismatch as a distinct outcome).
func (s *Snapshot) Validate() error {
	if err := s.Deployment.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	// Config.Validate's sign checks let NaN slip through (every NaN
	// comparison is false); a snapshot is hostile input, so the float
	// geometry must be explicitly finite.
	for _, v := range []float64{
		s.Deployment.Field.Min.X, s.Deployment.Field.Min.Y,
		s.Deployment.Field.Max.X, s.Deployment.Field.Max.Y,
		s.Deployment.Sigma, s.Deployment.Range,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite deployment geometry", ErrSnapshotCorrupt)
		}
	}
	if s.Deployment.Layout < deploy.LayoutGrid || s.Deployment.Layout > deploy.LayoutRandom {
		return fmt.Errorf("%w: unknown layout %d", ErrSnapshotCorrupt, int(s.Deployment.Layout))
	}
	if len(s.DeploymentHash) == 0 || len(s.DeploymentHash) > maxSnapshotString {
		return fmt.Errorf("%w: deployment hash length %d", ErrSnapshotCorrupt, len(s.DeploymentHash))
	}
	if len(s.SpecKey) == 0 || len(s.SpecKey) > maxSnapshotString {
		return fmt.Errorf("%w: spec key length %d", ErrSnapshotCorrupt, len(s.SpecKey))
	}
	if MetricByName(s.Metric) == nil {
		return fmt.Errorf("%w: unknown metric %q", ErrSnapshotCorrupt, s.Metric)
	}
	if s.Trials < 1 || s.Trials > math.MaxInt32 {
		return fmt.Errorf("%w: trials %d", ErrSnapshotCorrupt, s.Trials)
	}
	if !(s.TrainPercentile > 0 && s.TrainPercentile < 100) {
		return fmt.Errorf("%w: train percentile %g", ErrSnapshotCorrupt, s.TrainPercentile)
	}
	if !(s.Percentile > 0 && s.Percentile < 100) {
		return fmt.Errorf("%w: percentile %g", ErrSnapshotCorrupt, s.Percentile)
	}
	if s.SimEpoch < 1 || s.SimEpoch > 2 {
		return fmt.Errorf("%w: simulation epoch %d", ErrSnapshotCorrupt, s.SimEpoch)
	}
	if math.IsNaN(s.Threshold) {
		return fmt.Errorf("%w: NaN threshold", ErrSnapshotCorrupt)
	}
	if !(s.TrainSeconds >= 0) {
		return fmt.Errorf("%w: train seconds %g", ErrSnapshotCorrupt, s.TrainSeconds)
	}
	if s.TrialsDone < 1 || s.TrialsDone > s.Trials {
		return fmt.Errorf("%w: %d trials done of %d", ErrSnapshotCorrupt, s.TrialsDone, s.Trials)
	}
	if len(s.BenignSample) != s.TrialsDone {
		return fmt.Errorf("%w: benign sample has %d scores, %d trials done", ErrSnapshotCorrupt, len(s.BenignSample), s.TrialsDone)
	}
	partial := s.Partial()
	for i, v := range s.BenignSample {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN benign score at %d", ErrSnapshotCorrupt, i)
		}
		if !partial && i > 0 && v < s.BenignSample[i-1] {
			return fmt.Errorf("%w: benign sample not ascending at %d", ErrSnapshotCorrupt, i)
		}
	}
	return nil
}

// Encode renders the snapshot in the canonical versioned wire form:
// magic + version, fixed-order big-endian fields, length-prefixed
// strings, the benign sample, and a trailing CRC-32 over everything
// before it.
func (s *Snapshot) Encode() []byte {
	return s.AppendBinary(nil)
}

// AppendBinary is Encode appending to dst (for buffer reuse on the
// persistence path).
func (s *Snapshot) AppendBinary(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, snapshotMagic...)
	dst = append(dst, snapshotVersion)
	cfg := s.Deployment
	dst = appendF64(dst, cfg.Field.Min.X)
	dst = appendF64(dst, cfg.Field.Min.Y)
	dst = appendF64(dst, cfg.Field.Max.X)
	dst = appendF64(dst, cfg.Field.Max.Y)
	dst = appendU64(dst, uint64(cfg.GroupsX))
	dst = appendU64(dst, uint64(cfg.GroupsY))
	dst = appendU64(dst, uint64(cfg.GroupSize))
	dst = appendF64(dst, cfg.Sigma)
	dst = appendF64(dst, cfg.Range)
	dst = appendU64(dst, uint64(cfg.Layout))
	dst = appendU64(dst, cfg.RandomSeed)
	dst = appendString(dst, s.DeploymentHash)
	dst = appendString(dst, s.SpecKey)
	dst = appendString(dst, s.Metric)
	dst = appendU64(dst, uint64(s.Trials))
	dst = appendF64(dst, s.TrainPercentile)
	dst = appendU64(dst, s.Seed)
	if s.KeepInField {
		dst = appendU64(dst, 1)
	} else {
		dst = appendU64(dst, 0)
	}
	dst = appendU64(dst, uint64(s.SimEpoch))
	dst = appendU64(dst, uint64(s.TrialsDone))
	dst = appendF64(dst, s.Threshold)
	dst = appendF64(dst, s.Percentile)
	dst = appendF64(dst, s.TrainSeconds)
	dst = appendU64(dst, uint64(len(s.BenignSample)))
	for _, v := range s.BenignSample {
		dst = appendF64(dst, v)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// DecodeSnapshot strictly decodes the canonical wire form: any
// deviation — wrong magic, unknown version, checksum mismatch,
// truncation, trailing bytes, or a field value no encoder produces —
// is an error, never a panic, and any accepted input re-encodes
// bit-identically.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s := new(Snapshot)
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalBinary is DecodeSnapshot into a reusable receiver: the
// benign-sample buffer is grown at most once and string fields are only
// reallocated when their bytes actually changed, so re-decoding
// equivalent snapshots settles at zero allocations per op (the adoption
// hot path; TestSnapshotCodecZeroAllocs).
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	const headerLen = len(snapshotMagic) + 1
	if len(data) < headerLen+4 {
		return fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrSnapshotCorrupt, len(data))
	}
	switch string(data[:len(snapshotMagic)]) {
	case snapshotMagic:
	case legacyCheckpointMagic:
		return fmt.Errorf("%w: legacy training checkpoint", ErrSnapshotVersion)
	default:
		return fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	version := data[len(snapshotMagic)]
	if version < 1 || version > snapshotVersion {
		return fmt.Errorf("%w: version %d, this build speaks 1..%d", ErrSnapshotVersion, version, snapshotVersion)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(crcBytes); got != want {
		return fmt.Errorf("%w: checksum %08x, stored %08x", ErrSnapshotCorrupt, got, want)
	}

	r := snapReader{buf: body[headerLen:]}
	var cfg deploy.Config
	// Corners are assigned directly, NOT through geom.NewRect: its
	// min/max normalization would silently repair swapped corners, and a
	// decoder that rewrites stored bytes cannot re-encode bit-identically
	// (swapped corners instead fail Validate's empty-field check).
	cfg.Field.Min = geom.Pt(r.f64(), r.f64())
	cfg.Field.Max = geom.Pt(r.f64(), r.f64())
	cfg.GroupsX = r.nonNegInt()
	cfg.GroupsY = r.nonNegInt()
	cfg.GroupSize = r.nonNegInt()
	cfg.Sigma = r.f64()
	cfg.Range = r.f64()
	cfg.Layout = deploy.Layout(r.nonNegInt())
	cfg.RandomSeed = r.u64()
	s.Deployment = cfg
	setString(&s.DeploymentHash, r.str())
	setString(&s.SpecKey, r.str())
	s.Metric = internMetricName(r.str(), &r)
	s.Trials = r.nonNegInt()
	s.TrainPercentile = r.f64()
	s.Seed = r.u64()
	switch r.u64() {
	case 0:
		s.KeepInField = false
	case 1:
		s.KeepInField = true
	default:
		r.fail("keep-in-field flag is not 0 or 1")
	}
	if version >= 2 {
		s.SimEpoch = r.nonNegInt()
	} else {
		// Version-1 snapshots predate simulation epochs; everything they
		// trained was the bit-identity path.
		s.SimEpoch = 1
	}
	s.TrialsDone = s.Trials // versions 1 and 2 only ever stored finished detectors
	if version >= 3 {
		s.TrialsDone = r.nonNegInt()
	}
	s.Threshold = r.f64()
	s.Percentile = r.f64()
	s.TrainSeconds = r.f64()
	n := r.nonNegInt()
	// The count must be backed by actual bytes before anything is
	// allocated: a hostile length prefix cannot force a huge allocation.
	if r.err == nil && len(r.buf) != n*8 {
		r.fail("benign-sample length disagrees with remaining bytes")
	}
	if r.err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, r.err)
	}
	if cap(s.BenignSample) < n {
		s.BenignSample = make([]float64, n)
	}
	s.BenignSample = s.BenignSample[:n]
	for i := range s.BenignSample {
		s.BenignSample[i] = r.f64()
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(r.buf))
	}
	return s.Validate()
}

// snapReader is a strict cursor over the snapshot body. The first
// structural violation latches err; subsequent reads return zero values
// so decoding code stays linear (one error check at the end of each
// phase).
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail("truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

// nonNegInt reads a u64 that must fit a non-negative int (layouts,
// counts, trials); out-of-range values latch an error.
func (r *snapReader) nonNegInt() int {
	v := r.u64()
	if v > math.MaxInt32 {
		r.fail("integer field out of range")
		return 0
	}
	return int(v)
}

// str reads a length-prefixed byte string without copying; the caller
// materializes it (setString avoids the copy when unchanged).
func (r *snapReader) str() []byte {
	n := r.nonNegInt()
	if r.err != nil {
		return nil
	}
	if n > maxSnapshotString {
		r.fail("string field too long")
		return nil
	}
	if len(r.buf) < n {
		r.fail("truncated string")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// setString assigns b to *dst, skipping the allocation when the bytes
// already match (the string(b) in the comparison does not allocate).
func setString(dst *string, b []byte) {
	if *dst != string(b) {
		*dst = string(b)
	}
}

// internMetricName maps metric-name bytes onto the canonical constant
// from the metric registry so decoding a known metric never allocates;
// unknown names take the allocating path and fail Validate with the
// offending name intact.
func internMetricName(b []byte, r *snapReader) string {
	for _, m := range AllMetrics() {
		if string(b) == m.Name() {
			return m.Name()
		}
	}
	if r.err != nil {
		return ""
	}
	return string(b)
}

func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendString(dst []byte, s string) []byte {
	dst = appendU64(dst, uint64(len(s)))
	return append(dst, s...)
}
