package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

func testCheckpoint() *TrainCheckpoint {
	return &TrainCheckpoint{
		SpecKey:        "feedfacefeedfacefeedfacefeedface",
		DeploymentHash: "0123456789abcdef0123456789abcdef",
		Metric:         "probability",
		Trials:         4000,
		Percentile:     99,
		Seed:           11,
		KeepInField:    true,
		SimEpoch:       1,
		TrialsDone:     3,
		Scores:         []float64{0.25, -1.5, 0},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := testCheckpoint()
	data := c.Encode()
	got, err := DecodeTrainCheckpoint(data)
	if err != nil {
		t.Fatalf("DecodeTrainCheckpoint: %v", err)
	}
	if got.SpecKey != c.SpecKey || got.DeploymentHash != c.DeploymentHash || got.Metric != c.Metric {
		t.Errorf("identity fields differ: %+v", got)
	}
	if got.Trials != c.Trials || got.Percentile != c.Percentile || got.Seed != c.Seed ||
		got.KeepInField != c.KeepInField || got.SimEpoch != c.SimEpoch {
		t.Errorf("train config differs: %+v", got)
	}
	if got.TrialsDone != c.TrialsDone || len(got.Scores) != len(c.Scores) {
		t.Fatalf("progress differs: %+v", got)
	}
	for i := range got.Scores {
		if got.Scores[i] != c.Scores[i] {
			t.Fatalf("score[%d] = %v, want %v", i, got.Scores[i], c.Scores[i])
		}
	}
	// Canonical form: decoding and re-encoding is bit-identical.
	if !bytes.Equal(got.Encode(), data) {
		t.Error("re-encode is not bit-identical")
	}
}

func TestCheckpointTruncationNeverPanics(t *testing.T) {
	data := testCheckpoint().Encode()
	for n := 0; n < len(data); n++ {
		if _, err := DecodeTrainCheckpoint(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

func TestCheckpointByteFlipsRejected(t *testing.T) {
	data := testCheckpoint().Encode()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeTrainCheckpoint(mut); err == nil {
			t.Fatalf("flip at byte %d decoded", i)
		}
	}
}

func TestCheckpointUnknownVersionRejected(t *testing.T) {
	data := testCheckpoint().Encode()
	data[len(checkpointMagic)] = checkpointVersion + 1
	if _, err := DecodeTrainCheckpoint(data); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("err = %v, want ErrCheckpointVersion", err)
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
	if _, err := DecodeTrainCheckpoint(mut); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("err = %v, want ErrCheckpointCorrupt for trailing bytes", err)
	}
}

func TestCheckpointValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *TrainCheckpoint)
	}{
		{"empty spec key", func(c *TrainCheckpoint) { c.SpecKey = "" }},
		{"empty deployment hash", func(c *TrainCheckpoint) { c.DeploymentHash = "" }},
		{"unknown metric", func(c *TrainCheckpoint) { c.Metric = "nope" }},
		{"zero trials", func(c *TrainCheckpoint) { c.Trials = 0 }},
		{"percentile 0", func(c *TrainCheckpoint) { c.Percentile = 0 }},
		{"percentile 100", func(c *TrainCheckpoint) { c.Percentile = 100 }},
		{"epoch 0", func(c *TrainCheckpoint) { c.SimEpoch = 0 }},
		{"epoch 3", func(c *TrainCheckpoint) { c.SimEpoch = 3 }},
		{"zero trials done", func(c *TrainCheckpoint) { c.TrialsDone = 0; c.Scores = nil }},
		{"done past budget", func(c *TrainCheckpoint) { c.TrialsDone = c.Trials + 1 }},
		{"score count mismatch", func(c *TrainCheckpoint) { c.Scores = c.Scores[:1] }},
		{"NaN score", func(c *TrainCheckpoint) { c.Scores[1] = math.NaN() }},
	}
	for _, tc := range cases {
		c := testCheckpoint()
		tc.mut(c)
		if err := c.Validate(); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: Validate = %v, want ErrCheckpointCorrupt", tc.name, err)
		}
		// The strict decoder must reject what Validate rejects: an
		// encoder bug cannot smuggle an invalid checkpoint through the
		// wire form.
		if _, err := DecodeTrainCheckpoint(c.Encode()); err == nil {
			t.Errorf("%s: wire form decoded", tc.name)
		}
	}
}

func TestCheckpointEncodeDecodeZeroAllocs(t *testing.T) {
	c := testCheckpoint()
	c.Scores = make([]float64, 512)
	for i := range c.Scores {
		c.Scores[i] = float64(i) * 0.5
	}
	c.TrialsDone = len(c.Scores)
	c.Trials = 4 * len(c.Scores)

	buf := c.AppendBinary(nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendBinary with warm buffer: %v allocs/op, want 0", allocs)
	}

	var dec TrainCheckpoint
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
