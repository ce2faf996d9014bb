package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"sort"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
)

// snapTestConfig is a small deployment so snapshot tests rebuild models
// in milliseconds.
func snapTestConfig() deploy.Config {
	return deploy.Config{
		Field:      geom.NewRect(geom.Pt(0, 0), geom.Pt(300, 300)),
		GroupsX:    3,
		GroupsY:    3,
		GroupSize:  40,
		Sigma:      50,
		Range:      150,
		Layout:     deploy.LayoutGrid,
		RandomSeed: 0,
	}
}

// trainedSnapshot trains a tiny detector for real and assembles the
// full snapshot the serving pool would persist.
func trainedSnapshot(t testing.TB) (*Snapshot, *Detector) {
	t.Helper()
	tc := TrainConfig{Trials: 60, Percentile: 95, Seed: 11, KeepInField: true}
	return snapshotOf(t, deploy.MustNew(snapTestConfig()), tc)
}

// snapshotOf is trainedSnapshot for any model and training config.
func snapshotOf(t testing.TB, model *deploy.Model, tc TrainConfig) (*Snapshot, *Detector) {
	t.Helper()
	det, scores, err := Train(model, ProbMetric{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	s := det.Snapshot()
	s.SpecKey = "feedfacefeedfacefeedfacefeedface"
	s.Trials = tc.Trials
	s.TrainPercentile = tc.Percentile
	s.Seed = tc.Seed
	s.KeepInField = tc.KeepInField
	s.SimEpoch = 1
	s.TrialsDone = tc.Trials
	s.Percentile = tc.Percentile
	s.TrainSeconds = 0.125
	s.BenignSample = sorted
	return s, det
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, det := trainedSnapshot(t)
	data := s.Encode()
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Deployment != s.Deployment {
		t.Errorf("Deployment = %+v, want %+v", got.Deployment, s.Deployment)
	}
	if got.DeploymentHash != s.DeploymentHash || got.SpecKey != s.SpecKey || got.Metric != s.Metric {
		t.Errorf("identity fields differ: %+v", got)
	}
	if got.Trials != s.Trials || got.TrainPercentile != s.TrainPercentile ||
		got.Seed != s.Seed || got.KeepInField != s.KeepInField {
		t.Errorf("train config differs: %+v", got)
	}
	if got.Threshold != det.Threshold() || got.Percentile != s.Percentile || got.TrainSeconds != s.TrainSeconds {
		t.Errorf("operating point differs: %+v", got)
	}
	if len(got.BenignSample) != len(s.BenignSample) {
		t.Fatalf("sample length %d, want %d", len(got.BenignSample), len(s.BenignSample))
	}
	for i := range got.BenignSample {
		if got.BenignSample[i] != s.BenignSample[i] {
			t.Fatalf("sample[%d] = %v, want %v", i, got.BenignSample[i], s.BenignSample[i])
		}
	}
	// Canonical form: decoding and re-encoding is bit-identical.
	if !bytes.Equal(got.Encode(), data) {
		t.Error("re-encode is not bit-identical")
	}
}

// A restored detector must produce bit-identical verdicts and scores:
// adoption after a restart may not move any operating point.
func TestRestoreDetectorBitIdenticalVerdicts(t *testing.T) {
	s, det := trainedSnapshot(t)
	restored, err := RestoreDetector(s)
	if err != nil {
		t.Fatalf("RestoreDetector: %v", err)
	}
	if restored.Threshold() != det.Threshold() {
		t.Fatalf("threshold %v, want %v", restored.Threshold(), det.Threshold())
	}
	model := det.Model()
	r := rng.New(99)
	n := model.NumGroups()
	o := make([]int, n)
	for trial := 0; trial < 20; trial++ {
		group, la := model.SampleLocation(r)
		model.SampleObservationInto(o, la, group, r)
		v1 := det.Check(o, la)
		v2 := restored.Check(o, la)
		if v1.Score != v2.Score || v1.Alarm != v2.Alarm {
			t.Fatalf("trial %d: restored verdict (%v, %v) != original (%v, %v)",
				trial, v2.Score, v2.Alarm, v1.Score, v1.Alarm)
		}
	}
}

// Truncation at every prefix length must yield a clean error, never a
// panic or a bogus snapshot.
func TestSnapshotDecodeTruncation(t *testing.T) {
	s, _ := trainedSnapshot(t)
	data := s.Encode()
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(data))
		}
	}
}

func TestSnapshotDecodeRejections(t *testing.T) {
	s, _ := trainedSnapshot(t)
	base := s.Encode()
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0x01; return b }, ErrSnapshotCorrupt},
		{"future version", func(b []byte) []byte { b[7] = 99; return b }, ErrSnapshotVersion},
		{"flipped body bit", func(b []byte) []byte { b[20] ^= 0x08; return b }, ErrSnapshotCorrupt},
		{"flipped crc bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrSnapshotCorrupt},
		{"trailing byte", func(b []byte) []byte { return append(b, 0) }, ErrSnapshotCorrupt},
		{"empty", func(b []byte) []byte { return nil }, ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), base...)
			if _, err := DecodeSnapshot(tc.mangle(buf)); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSnapshotValidateRejections(t *testing.T) {
	fresh := func(t *testing.T) *Snapshot { s, _ := trainedSnapshot(t); return s }
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"NaN sigma", func(s *Snapshot) { s.Deployment.Sigma = math.NaN() }},
		{"Inf field corner", func(s *Snapshot) { s.Deployment.Field.Max.X = math.Inf(1) }},
		{"swapped corners", func(s *Snapshot) {
			s.Deployment.Field.Min, s.Deployment.Field.Max = s.Deployment.Field.Max, s.Deployment.Field.Min
		}},
		{"unknown layout", func(s *Snapshot) { s.Deployment.Layout = 7 }},
		{"empty hash", func(s *Snapshot) { s.DeploymentHash = "" }},
		{"empty spec key", func(s *Snapshot) { s.SpecKey = "" }},
		{"unknown metric", func(s *Snapshot) { s.Metric = "entropy" }},
		{"zero trials", func(s *Snapshot) { s.Trials = 0; s.BenignSample = nil }},
		{"train percentile 100", func(s *Snapshot) { s.TrainPercentile = 100 }},
		{"percentile 0", func(s *Snapshot) { s.Percentile = 0 }},
		{"NaN threshold", func(s *Snapshot) { s.Threshold = math.NaN() }},
		{"negative train seconds", func(s *Snapshot) { s.TrainSeconds = -1 }},
		{"sample/trials mismatch", func(s *Snapshot) { s.BenignSample = s.BenignSample[:len(s.BenignSample)-1] }},
		{"NaN in sample", func(s *Snapshot) { s.BenignSample[3] = math.NaN() }},
		{"descending sample", func(s *Snapshot) {
			s.BenignSample[0], s.BenignSample[len(s.BenignSample)-1] = s.BenignSample[len(s.BenignSample)-1], s.BenignSample[0]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := fresh(t)
			tc.mutate(s)
			if err := s.Validate(); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("Validate = %v, want ErrSnapshotCorrupt", err)
			}
			// The encoded form of an invalid snapshot must not decode.
			if _, err := DecodeSnapshot(s.Encode()); err == nil {
				t.Fatal("decode of invalid snapshot succeeded")
			}
		})
	}
}

func TestRestoreDetectorHashMismatch(t *testing.T) {
	s, _ := trainedSnapshot(t)
	s.DeploymentHash = "deadbeef" + s.DeploymentHash[8:]
	if err := s.VerifyDeploymentHash(); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("VerifyDeploymentHash = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := RestoreDetector(s); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("RestoreDetector = %v, want ErrSnapshotMismatch", err)
	}
}

func TestTrainCancel(t *testing.T) {
	model := deploy.MustNew(snapTestConfig())
	cancel := make(chan struct{})
	close(cancel)
	cfg := TrainConfig{Trials: 500, Percentile: 95, Seed: 3, Cancel: cancel}
	if _, _, err := Train(model, ProbMetric{}, cfg); !errors.Is(err, ErrTrainingCanceled) {
		t.Fatalf("Train with pre-closed cancel = %v, want ErrTrainingCanceled", err)
	}
	if _, err := BenignScores(model, []Metric{ProbMetric{}}, cfg); !errors.Is(err, ErrTrainingCanceled) {
		t.Fatalf("BenignScores with pre-closed cancel = %v, want ErrTrainingCanceled", err)
	}
	// A nil Cancel trains normally.
	cfg.Cancel = nil
	cfg.Trials = 20
	if _, _, err := Train(model, ProbMetric{}, cfg); err != nil {
		t.Fatalf("Train with nil cancel: %v", err)
	}
}

// encodeSnapshotV1 renders s in the version-1 wire layout — the epoch 9
// encoding, identical to the current one except for the version byte
// and the absent simulation-epoch field. Kept as a test-only encoder so
// the decode-compat contract (old snapshot stores keep adopting) stays
// pinned against real v1 bytes, not a remembered format.
func encodeSnapshotV1(s *Snapshot) []byte {
	var dst []byte
	dst = append(dst, snapshotMagic...)
	dst = append(dst, 1)
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
	dst = appendF64(dst, s.Threshold)
	dst = appendF64(dst, s.Percentile)
	dst = appendF64(dst, s.TrainSeconds)
	dst = appendU64(dst, uint64(len(s.BenignSample)))
	for _, v := range s.BenignSample {
		dst = appendF64(dst, v)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
}

// TestSnapshotDecodeV1Compat pins the version upgrade path: epoch-less
// version-1 snapshots (everything persisted before simulation epochs
// existed) must decode cleanly, default to SimEpoch 1, and re-encode in
// the current canonical form.
func TestSnapshotDecodeV1Compat(t *testing.T) {
	s, _ := trainedSnapshot(t)
	v1 := encodeSnapshotV1(s)
	got, err := DecodeSnapshot(v1)
	if err != nil {
		t.Fatalf("decoding v1 snapshot: %v", err)
	}
	if got.SimEpoch != 1 {
		t.Fatalf("v1 snapshot decoded with SimEpoch %d, want 1", got.SimEpoch)
	}
	// Every other field must round-trip untouched.
	if got.Deployment != s.Deployment || got.DeploymentHash != s.DeploymentHash ||
		got.SpecKey != s.SpecKey || got.Metric != s.Metric ||
		got.Trials != s.Trials || got.TrainPercentile != s.TrainPercentile ||
		got.Seed != s.Seed || got.KeepInField != s.KeepInField ||
		got.Threshold != s.Threshold || got.Percentile != s.Percentile ||
		got.TrainSeconds != s.TrainSeconds {
		t.Fatalf("v1 decode mangled fields: %+v", got)
	}
	// The upgrade is visible on re-encode: current version byte, and the
	// result round-trips bit-identically (canonical form).
	up := got.Encode()
	if up[len(snapshotMagic)] != snapshotVersion {
		t.Fatalf("re-encode kept version %d", up[len(snapshotMagic)])
	}
	again, err := DecodeSnapshot(up)
	if err != nil {
		t.Fatalf("decoding upgraded snapshot: %v", err)
	}
	if !bytes.Equal(again.Encode(), up) {
		t.Fatal("upgraded snapshot is not canonical")
	}
	// And a v2 snapshot that actually trained under epoch 2 keeps it.
	s.SimEpoch = 2
	rt, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if rt.SimEpoch != 2 {
		t.Fatalf("round-trip lost SimEpoch 2: got %d", rt.SimEpoch)
	}
}
