package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// TrainCheckpoint is the durable mid-training state of one threshold
// run: enough to resume a TrainRun from its last completed batch
// boundary with a result bit-identical to an uninterrupted run. Because
// per-trial RNG substreams are pre-derived from the master seed
// (trial t depends only on seeds[t], and seeds re-derive from Seed),
// the checkpoint does not carry generator state — only the training
// configuration that pins the seed schedule, the count of completed
// trials, and their scores in trial order (NOT sorted; the percentile
// cut at Finish sorts a copy, exactly like an uninterrupted Train).
//
// The wire encoding follows the Snapshot discipline: versioned magic,
// fixed-order big-endian fields, length-prefixed strings, trailing
// CRC-32, strict decoding that never panics on hostile bytes, and the
// canonical property that any accepted byte string re-encodes
// bit-identically.
type TrainCheckpoint struct {
	// SpecKey is the serving layer's canonical spec key, opaque to core;
	// the pool uses it to verify a stored checkpoint still belongs to
	// the job it is resuming.
	SpecKey string
	// DeploymentHash pins the deployment the trials were simulated on.
	// Unlike a Snapshot, a checkpoint does not embed the deployment
	// config — the resuming job already holds a validated spec — so the
	// hash is the cheap cross-check that they agree.
	DeploymentHash string
	// Metric is the detection metric by Name().
	Metric string
	// Trials, Percentile, Seed, KeepInField and SimEpoch are the
	// training configuration; a resume under any different configuration
	// is rejected (the seed schedule and trial bodies would diverge).
	Trials      int
	Percentile  float64
	Seed        uint64
	KeepInField bool
	SimEpoch    int
	// TrialsDone is the number of completed leading trials.
	TrialsDone int
	// Scores holds the scores of trials [0, TrialsDone) in trial order.
	Scores []float64
}

// Checkpoint decode errors, mirroring the snapshot taxonomy:
// ErrCheckpointCorrupt covers structural damage, ErrCheckpointVersion
// an encoding epoch this build does not speak, ErrCheckpointMismatch a
// structurally valid checkpoint taken under a different training
// configuration than the resuming job's. All three degrade to
// restart-from-zero at the serving layer — a checkpoint is an
// optimization, never a correctness dependency.
var (
	ErrCheckpointCorrupt  = errors.New("core: train checkpoint corrupt")
	ErrCheckpointVersion  = errors.New("core: unsupported train checkpoint version")
	ErrCheckpointMismatch = errors.New("core: train checkpoint configuration mismatch")
)

// checkpointMagic brands the first 7 bytes of every checkpoint; the 8th
// byte is the encoding version.
const checkpointMagic = "LADCKPT"

// checkpointVersion is the current encoding epoch.
const checkpointVersion = 1

// Validate checks the structural invariants every resumable checkpoint
// must satisfy — the same checks the strict decoder applies.
func (c *TrainCheckpoint) Validate() error {
	if len(c.SpecKey) == 0 || len(c.SpecKey) > maxSnapshotString {
		return fmt.Errorf("%w: spec key length %d", ErrCheckpointCorrupt, len(c.SpecKey))
	}
	if len(c.DeploymentHash) == 0 || len(c.DeploymentHash) > maxSnapshotString {
		return fmt.Errorf("%w: deployment hash length %d", ErrCheckpointCorrupt, len(c.DeploymentHash))
	}
	if MetricByName(c.Metric) == nil {
		return fmt.Errorf("%w: unknown metric %q", ErrCheckpointCorrupt, c.Metric)
	}
	if c.Trials < 1 || c.Trials > math.MaxInt32 {
		return fmt.Errorf("%w: trials %d", ErrCheckpointCorrupt, c.Trials)
	}
	if !(c.Percentile > 0 && c.Percentile < 100) {
		return fmt.Errorf("%w: percentile %g", ErrCheckpointCorrupt, c.Percentile)
	}
	if c.SimEpoch < 1 || c.SimEpoch > 2 {
		return fmt.Errorf("%w: simulation epoch %d", ErrCheckpointCorrupt, c.SimEpoch)
	}
	if c.TrialsDone < 1 || c.TrialsDone > c.Trials {
		return fmt.Errorf("%w: %d trials done of %d", ErrCheckpointCorrupt, c.TrialsDone, c.Trials)
	}
	if len(c.Scores) != c.TrialsDone {
		return fmt.Errorf("%w: %d scores for %d trials done", ErrCheckpointCorrupt, len(c.Scores), c.TrialsDone)
	}
	for i, v := range c.Scores {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN score at %d", ErrCheckpointCorrupt, i)
		}
	}
	return nil
}

// Encode renders the checkpoint in the canonical versioned wire form.
func (c *TrainCheckpoint) Encode() []byte {
	return c.AppendBinary(nil)
}

// AppendBinary is Encode appending to dst. The scheduler saves a
// checkpoint per batch, so the serving layer reuses one buffer across
// saves; with sufficient capacity this performs no allocations
// (TestCheckpointEncodeDecodeZeroAllocs).
func (c *TrainCheckpoint) AppendBinary(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, checkpointMagic...)
	dst = append(dst, checkpointVersion)
	dst = appendString(dst, c.SpecKey)
	dst = appendString(dst, c.DeploymentHash)
	dst = appendString(dst, c.Metric)
	dst = appendU64(dst, uint64(c.Trials))
	dst = appendF64(dst, c.Percentile)
	dst = appendU64(dst, c.Seed)
	if c.KeepInField {
		dst = appendU64(dst, 1)
	} else {
		dst = appendU64(dst, 0)
	}
	dst = appendU64(dst, uint64(c.SimEpoch))
	dst = appendU64(dst, uint64(c.TrialsDone))
	for _, v := range c.Scores {
		dst = appendF64(dst, v)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// DecodeTrainCheckpoint strictly decodes the canonical wire form: any
// deviation — wrong magic, unknown version, checksum mismatch,
// truncation, trailing bytes, or a field value no encoder produces —
// is an error, never a panic, and any accepted input re-encodes
// bit-identically.
func DecodeTrainCheckpoint(data []byte) (*TrainCheckpoint, error) {
	c := new(TrainCheckpoint)
	if err := c.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return c, nil
}

// UnmarshalBinary is DecodeTrainCheckpoint into a reusable receiver:
// the score buffer is grown at most once and string fields reallocate
// only when their bytes changed, so re-decoding equivalent checkpoints
// settles at zero allocations per op (the resume path;
// TestCheckpointEncodeDecodeZeroAllocs).
func (c *TrainCheckpoint) UnmarshalBinary(data []byte) error {
	const headerLen = len(checkpointMagic) + 1
	if len(data) < headerLen+4 {
		return fmt.Errorf("%w: %d bytes is shorter than any checkpoint", ErrCheckpointCorrupt, len(data))
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	if v := data[len(checkpointMagic)]; v != checkpointVersion {
		return fmt.Errorf("%w: version %d, this build speaks %d", ErrCheckpointVersion, v, checkpointVersion)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(crcBytes); got != want {
		return fmt.Errorf("%w: checksum %08x, stored %08x", ErrCheckpointCorrupt, got, want)
	}

	r := snapReader{buf: body[headerLen:]}
	setString(&c.SpecKey, r.str())
	setString(&c.DeploymentHash, r.str())
	c.Metric = internMetricName(r.str(), &r)
	c.Trials = r.nonNegInt()
	c.Percentile = r.f64()
	c.Seed = r.u64()
	switch r.u64() {
	case 0:
		c.KeepInField = false
	case 1:
		c.KeepInField = true
	default:
		r.fail("keep-in-field flag is not 0 or 1")
	}
	c.SimEpoch = r.nonNegInt()
	c.TrialsDone = r.nonNegInt()
	n := c.TrialsDone
	// The count must be backed by actual bytes before anything is
	// allocated: a hostile length prefix cannot force a huge allocation.
	if r.err == nil && len(r.buf) != n*8 {
		r.fail("score length disagrees with remaining bytes")
	}
	if r.err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointCorrupt, r.err)
	}
	if cap(c.Scores) < n {
		c.Scores = make([]float64, n)
	}
	c.Scores = c.Scores[:n]
	for i := range c.Scores {
		c.Scores[i] = r.f64()
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, len(r.buf))
	}
	return c.Validate()
}
