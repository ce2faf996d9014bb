package core

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode drives the strict decoder with arbitrary bytes
// seeded from a training checkpoint (a partial snapshot). The contract
// under fuzz is the snapshot decoder's: never panic, and every accepted
// input re-encodes bit-identically — the reason a corrupt checkpoint
// can only ever degrade resume to restart-from-zero, never splice a
// wrong score sample into a threshold.
func FuzzCheckpointDecode(f *testing.F) {
	valid := testCheckpoint().Encode()
	f.Add(valid)
	for _, mut := range []int{0, 7, 8, len(valid) / 2, len(valid) - 5, len(valid) - 1} {
		m := append([]byte(nil), valid...)
		m[mut] ^= 0x40
		f.Add(m)
	}
	f.Add(valid[:len(valid)-9])
	f.Add([]byte(nil))
	f.Add([]byte("LADCKPT\x01"))
	f.Add(bytes.Repeat([]byte{0}, 256))

	f.Fuzz(fuzzDecodeCanonical)
}
