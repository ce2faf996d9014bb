package core

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/deploy"
)

// FuzzSnapshotDecode drives the strict decoder with arbitrary bytes.
// The contract under fuzz: never panic, and every accepted input
// re-encodes bit-identically (the canonical-form property the
// adoption path's integrity story rests on — if two byte strings
// decoded to the same snapshot, a checksum could be "repaired" by
// re-encoding and corruption would become invisible). FuzzCheckpointDecode
// holds the same contract over training checkpoints.
func FuzzSnapshotDecode(f *testing.F) {
	// Seed corpus: a real trained snapshot, a handful of structured
	// mutations of it, and degenerate inputs.
	model := deploy.MustNew(deploy.Config{GroupsX: 2, GroupsY: 2, GroupSize: 12,
		Sigma: 40, Range: 120, Layout: deploy.LayoutGrid,
		Field: deploy.PaperConfig().Field})
	det, scores, err := Train(model, ProbMetric{}, TrainConfig{Trials: 16, Percentile: 90, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	sort.Float64s(scores)
	s := det.Snapshot()
	s.SpecKey = "0123456789abcdef0123456789abcdef"
	s.Trials = 16
	s.TrainPercentile = 90
	s.Seed = 2
	s.SimEpoch = 1
	s.TrialsDone = 16
	s.Percentile = 90
	s.BenignSample = scores
	valid := s.Encode()
	f.Add(valid)
	f.Add(encodeSnapshotV1(s))
	for _, mut := range []int{0, 7, 8, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		m := append([]byte(nil), valid...)
		m[mut] ^= 0x40
		f.Add(m)
	}
	f.Add(valid[:len(valid)-9])
	f.Add([]byte(nil))
	f.Add([]byte("LADSNAP\x01"))
	f.Add(bytes.Repeat([]byte{0}, 256))

	f.Fuzz(fuzzDecodeCanonical)
}

// fuzzDecodeCanonical is the property both decoder fuzz targets hold:
// DecodeSnapshot never panics, and every input it accepts re-encodes
// bit-identically (or, for an older version, upgrades to a canonical
// form) and passes Validate.
func fuzzDecodeCanonical(t *testing.T, data []byte) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return // rejected cleanly; nothing else to hold
	}
	got := snap.Encode()
	if data[len(snapshotMagic)] == snapshotVersion {
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted %d-byte input does not re-encode bit-identically (got %d bytes)", len(data), len(got))
		}
	} else {
		// Older accepted versions upgrade on re-encode; the canonical
		// property then holds of the upgraded form: it must round-trip
		// to an identical snapshot and identical bytes.
		again, err := DecodeSnapshot(got)
		if err != nil {
			t.Fatalf("upgraded re-encode rejected: %v", err)
		}
		if !bytes.Equal(again.Encode(), got) {
			t.Fatalf("upgraded form is not canonical")
		}
		if data[len(snapshotMagic)] == 1 && again.SimEpoch != 1 {
			t.Fatalf("version-1 input decoded with SimEpoch %d, want 1", again.SimEpoch)
		}
	}
	// Accepted snapshots must also survive their own validator — the
	// decoder promises structural validity, not just parseability.
	if err := snap.Validate(); err != nil {
		t.Fatalf("accepted snapshot fails Validate: %v", err)
	}
}
