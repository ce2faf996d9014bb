package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// testCheckpoint is a partial snapshot: three of 4000 trials done, the
// scores in trial order (not ascending).
func testCheckpoint() *Snapshot {
	cfg := snapTestConfig()
	return &Snapshot{
		Deployment:      cfg,
		DeploymentHash:  cfg.Hash(),
		SpecKey:         "feedfacefeedfacefeedfacefeedface",
		Metric:          "probability",
		Trials:          4000,
		TrainPercentile: 99,
		Seed:            11,
		KeepInField:     true,
		SimEpoch:        1,
		TrialsDone:      3,
		Percentile:      99,
		BenignSample:    []float64{0.25, -1.5, 0},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := testCheckpoint()
	data := c.Encode()
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.SpecKey != c.SpecKey || got.DeploymentHash != c.DeploymentHash || got.Metric != c.Metric {
		t.Errorf("identity fields differ: %+v", got)
	}
	if got.Trials != c.Trials || got.TrainPercentile != c.TrainPercentile || got.Seed != c.Seed ||
		got.KeepInField != c.KeepInField || got.SimEpoch != c.SimEpoch {
		t.Errorf("train config differs: %+v", got)
	}
	if !got.Partial() || got.TrialsDone != c.TrialsDone || len(got.BenignSample) != len(c.BenignSample) {
		t.Fatalf("progress differs: %+v", got)
	}
	for i := range got.BenignSample {
		if got.BenignSample[i] != c.BenignSample[i] {
			t.Fatalf("score[%d] = %v, want %v", i, got.BenignSample[i], c.BenignSample[i])
		}
	}
	// Canonical form: decoding and re-encoding is bit-identical.
	if !bytes.Equal(got.Encode(), data) {
		t.Error("re-encode is not bit-identical")
	}
	// A checkpoint has no threshold to serve.
	if _, err := RestoreDetector(got); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("RestoreDetector of a checkpoint = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestCheckpointTruncationNeverPanics(t *testing.T) {
	data := testCheckpoint().Encode()
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

func TestCheckpointByteFlipsRejected(t *testing.T) {
	data := testCheckpoint().Encode()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flip at byte %d decoded", i)
		}
	}
}

// TestCheckpointUnknownVersionRejected: a future version and the
// "LADCKPT" records of older builds are both version skew, so the
// serving layer quarantines them as stale rather than corrupt.
func TestCheckpointUnknownVersionRejected(t *testing.T) {
	data := testCheckpoint().Encode()
	data[len(snapshotMagic)] = snapshotVersion + 1
	if _, err := DecodeSnapshot(data); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("err = %v, want ErrSnapshotVersion", err)
	}
	legacy := reencode(append([]byte(legacyCheckpointMagic+"\x01"), make([]byte, 64)...))
	if _, err := DecodeSnapshot(legacy); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("legacy checkpoint: err = %v, want ErrSnapshotVersion", err)
	}
}

// reencode recomputes the trailing CRC after a test mutated the body,
// isolating the structural check under test from the checksum.
func reencode(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestCheckpointTrailingBytesRejected(t *testing.T) {
	data := testCheckpoint().Encode()
	mut := reencode(append(data[:len(data)-4:len(data)-4], 0, 0, 0, 0, 0, 0, 0, 0))
	if _, err := DecodeSnapshot(mut); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("err = %v, want ErrSnapshotCorrupt for trailing bytes", err)
	}
}

func TestCheckpointValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *Snapshot)
	}{
		{"empty spec key", func(c *Snapshot) { c.SpecKey = "" }},
		{"empty deployment hash", func(c *Snapshot) { c.DeploymentHash = "" }},
		{"unknown metric", func(c *Snapshot) { c.Metric = "nope" }},
		{"zero trials", func(c *Snapshot) { c.Trials = 0 }},
		{"percentile 0", func(c *Snapshot) { c.TrainPercentile = 0 }},
		{"percentile 100", func(c *Snapshot) { c.TrainPercentile = 100 }},
		{"epoch 0", func(c *Snapshot) { c.SimEpoch = 0 }},
		{"epoch 3", func(c *Snapshot) { c.SimEpoch = 3 }},
		{"zero trials done", func(c *Snapshot) { c.TrialsDone = 0; c.BenignSample = nil }},
		{"done past budget", func(c *Snapshot) { c.TrialsDone = c.Trials + 1 }},
		{"score count mismatch", func(c *Snapshot) { c.BenignSample = c.BenignSample[:1] }},
		{"NaN score", func(c *Snapshot) { c.BenignSample[1] = math.NaN() }},
		// Finishing the budget makes the record a detector's snapshot,
		// whose sample must be ascending.
		{"complete in trial order", func(c *Snapshot) { c.Trials = c.TrialsDone }},
	}
	for _, tc := range cases {
		c := testCheckpoint()
		tc.mut(c)
		if err := c.Validate(); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrSnapshotCorrupt", tc.name, err)
		}
		// The strict decoder must reject what Validate rejects: an
		// encoder bug cannot smuggle an invalid checkpoint through the
		// wire form.
		if _, err := DecodeSnapshot(c.Encode()); err == nil {
			t.Errorf("%s: wire form decoded", tc.name)
		}
	}
}

func TestCheckpointEncodeDecodeZeroAllocs(t *testing.T) {
	c := testCheckpoint()
	c.BenignSample = make([]float64, 512)
	for i := range c.BenignSample {
		c.BenignSample[i] = float64(i) * 0.5
	}
	c.TrialsDone = len(c.BenignSample)
	c.Trials = 4 * len(c.BenignSample)

	buf := c.AppendBinary(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendBinary with warm buffer: %v allocs/op, want 0", allocs)
	}

	var dec Snapshot
	if err := dec.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := dec.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("UnmarshalBinary with warm receiver: %v allocs/op, want 0", allocs)
	}
}

// TestSnapshotCodecZeroAllocs holds the snapshot codec to the same bar:
// the pool's persist goroutine encodes into a reused buffer and every
// adoption decodes into a reused receiver without feeding the GC.
func TestSnapshotCodecZeroAllocs(t *testing.T) {
	s, _ := trainedSnapshot(t)
	buf := s.AppendBinary(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Errorf("Snapshot.AppendBinary with warm buffer: %v allocs/op, want 0", allocs)
	}

	var dec Snapshot
	if err := dec.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := dec.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Snapshot.UnmarshalBinary with warm receiver: %v allocs/op, want 0", allocs)
	}
}
