package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/store"
)

// partialCheckpoint trains trials leading trials of spec out-of-process
// (a plain core.TrainRun, the way a killed daemon would have) and
// returns the wire-form checkpoint a crashed flight leaves behind.
func partialCheckpoint(t *testing.T, spec DetectorSpec, trials int) []byte {
	t.Helper()
	model, err := deploy.New(spec.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Train.TrainConfig()
	cfg.Workers = 1
	run, err := core.NewTrainRun(model, core.MetricByName(spec.Metric), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunBatch(trials); err != nil {
		t.Fatal(err)
	}
	ck := core.TrainCheckpoint{SpecKey: spec.Key(), DeploymentHash: spec.Deployment.Hash()}
	run.CheckpointInto(&ck)
	return ck.Encode()
}

// waitCheckpointGone polls until the resource's checkpoint leaves the
// store (the delete runs just after the ready state publishes).
func waitCheckpointGone(t *testing.T, s store.Store, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Get(checkpointStoreID(id)); errors.Is(err, store.ErrNotFound) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("checkpoint for %s still in store", id)
}

// TestCheckpointResumeAcrossPools is the crash-resume path end to end:
// a fresh pool finds the dead flight's checkpoint, adopts its trials,
// and finishes with the exact threshold an uninterrupted run produces.
func TestCheckpointResumeAcrossPools(t *testing.T) {
	spec := tinySpec()
	const preTrials = 32

	// Reference: an uninterrupted training in a store-less pool.
	ref, err := NewDetectorPool(0).await(spec)
	if err != nil {
		t.Fatal(err)
	}

	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(checkpointStoreID(spec.ID()), partialCheckpoint(t, spec, preTrials)); err != nil {
		t.Fatal(err)
	}

	p := NewDetectorPool(0)
	p.SetStore(fs)
	det, err := p.await(spec)
	if err != nil {
		t.Fatal(err)
	}
	resumes, resumedTrials, rejected := p.ckptResumes.Load(), p.ckptResumedTrials.Load(), p.ckptRejected.Load()
	if resumes != 1 || resumedTrials != preTrials || rejected != 0 {
		t.Errorf("resumes/resumedTrials/rejected = %d/%d/%d, want 1/%d/0", resumes, resumedTrials, rejected, preTrials)
	}
	if det.Threshold() != ref.Threshold() {
		t.Errorf("resumed threshold %v != uninterrupted %v", det.Threshold(), ref.Threshold())
	}
	v1, v2 := fixedVerdict(ref), fixedVerdict(det)
	if v1.Score != v2.Score || v1.Alarm != v2.Alarm {
		t.Errorf("resumed verdict (%v, %v) != reference (%v, %v)", v2.Score, v2.Alarm, v1.Score, v1.Alarm)
	}
	// Success retires the checkpoint; only the ready snapshot remains.
	waitCheckpointGone(t, fs, spec.ID())
	waitSaves(t, p, 1)
}

// TestCheckpointSavedBetweenBatches: with a small batch budget, a
// training flight persists progress as it goes and retires the
// checkpoint once the detector is ready.
func TestCheckpointSavedBetweenBatches(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(16)
	p.SetStore(fs)
	spec := tinySpec() // 80 trials → 5 batches → 4 mid-run checkpoints
	if _, err := p.await(spec); err != nil {
		t.Fatal(err)
	}
	saveOK, saveErr := p.ckptSaveOK.Load(), p.ckptSaveErr.Load()
	if saveOK != 4 || saveErr != 0 {
		t.Errorf("checkpoint saves ok/err = %d/%d, want 4/0", saveOK, saveErr)
	}
	waitCheckpointGone(t, fs, spec.ID())
	waitSaves(t, p, 1)
}

// TestCheckpointWriteFaultDegrades is the fault-injection leg: a dead
// disk on the checkpoint path must cost nothing but durability —
// training completes, the error is counted, and a restart simply starts
// from trial zero.
func TestCheckpointWriteFaultDegrades(t *testing.T) {
	inner, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := store.NewFaulty(inner)
	faulty.SetPutError(errors.New("disk on fire"))

	ref, err := NewDetectorPool(0).await(tinySpec())
	if err != nil {
		t.Fatal(err)
	}

	p := NewDetectorPool(0)
	p.SetSchedBatchTrials(16)
	p.SetStore(faulty)
	det, err := p.await(tinySpec())
	if err != nil {
		t.Fatalf("training must survive a dead checkpoint disk: %v", err)
	}
	if det.Threshold() != ref.Threshold() {
		t.Errorf("threshold moved under write faults: %v != %v", det.Threshold(), ref.Threshold())
	}
	saveOK, saveErr := p.ckptSaveOK.Load(), p.ckptSaveErr.Load()
	if saveOK != 0 || saveErr < 1 {
		t.Errorf("checkpoint saves ok/err = %d/%d, want 0/≥1", saveOK, saveErr)
	}

	// The restart-from-zero degradation: nothing was persisted, so a
	// fresh pool over the (healthy again) store resumes nothing and
	// still reaches the same operating point.
	p2 := NewDetectorPool(0)
	p2.SetStore(inner)
	det2, err := p2.await(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if resumes := p2.ckptResumes.Load(); resumes != 0 {
		t.Errorf("resumes = %d, want 0 after failed saves", resumes)
	}
	if det2.Threshold() != ref.Threshold() {
		t.Errorf("restart-from-zero threshold %v != reference %v", det2.Threshold(), ref.Threshold())
	}
	waitSaves(t, p2, 1)
}

// TestCheckpointRejectedOnCorruptOrForeignBytes: a mangled checkpoint
// and one for a different spec both degrade to a clean from-scratch
// run, are counted, and are removed so they are consulted only once.
func TestCheckpointRejectedOnCorruptOrForeignBytes(t *testing.T) {
	spec := tinySpec()
	other := tinySpec()
	other.Train.Seed++

	cases := []struct {
		name  string
		bytes func(t *testing.T) []byte
	}{
		{"corrupt", func(t *testing.T) []byte {
			data := partialCheckpoint(t, spec, 16)
			data[len(data)/2] ^= 0x40
			return data
		}},
		{"foreign spec", func(t *testing.T) []byte {
			return partialCheckpoint(t, other, 16)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := store.OpenFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Put(checkpointStoreID(spec.ID()), tc.bytes(t)); err != nil {
				t.Fatal(err)
			}
			p := NewDetectorPool(0)
			p.SetStore(fs)
			if _, err := p.await(spec); err != nil {
				t.Fatalf("bad checkpoint must not fail training: %v", err)
			}
			resumes, rejected := p.ckptResumes.Load(), p.ckptRejected.Load()
			if resumes != 0 || rejected != 1 {
				t.Errorf("resumes/rejected = %d/%d, want 0/1", resumes, rejected)
			}
			if _, err := fs.Get(checkpointStoreID(spec.ID())); !errors.Is(err, store.ErrNotFound) {
				t.Errorf("rejected checkpoint still in store (err=%v)", err)
			}
			waitSaves(t, p, 1)
		})
	}
}

// TestAdoptSkipsCheckpoints: boot-time adoption must treat checkpoint
// entries as a different species, not quarantine them as corrupt
// snapshots (which would destroy resumable progress at every boot).
func TestAdoptSkipsCheckpoints(t *testing.T) {
	spec := tinySpec()
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ckBytes := partialCheckpoint(t, spec, 16)
	if err := fs.Put(checkpointStoreID(spec.ID()), ckBytes); err != nil {
		t.Fatal(err)
	}
	p := NewDetectorPool(0)
	p.SetStore(fs)
	stats, err := p.AdoptSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 0 || stats.Corrupt != 0 || stats.Errors != 0 {
		t.Errorf("AdoptSnapshots = %v, want everything zero for a checkpoint-only store", stats)
	}
	got, err := fs.Get(checkpointStoreID(spec.ID()))
	if err != nil || len(got) != len(ckBytes) {
		t.Errorf("checkpoint disturbed by adoption: err=%v", err)
	}
}

// TestRetryAfterScalesWithQueuePosition: a deeply queued registration
// gets a proportionally longer poll hint than the head of the line.
func TestRetryAfterScalesWithQueuePosition(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := newDetectorPoolWithTrainer(func(spec DetectorSpec, _ int, cancel <-chan struct{}) (*core.Detector, []float64, error) {
		select {
		case <-block:
		case <-cancel:
		}
		return nil, nil, errors.New("test trainer never finishes")
	})
	p.SetTrainConcurrency(1)

	specs := make([]DetectorSpec, 3)
	ids := make([]string, 3)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Train.Seed = uint64(100 + i)
		st, _, err := p.Register(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	headSt, _ := p.Lookup(ids[1])
	tailSt, _ := p.Lookup(ids[2])
	head := p.RetryAfter(headSt) // next in line
	tail := p.RetryAfter(tailSt) // behind it
	if tail <= head {
		t.Errorf("RetryAfter(tail) = %v, want > head's %v", tail, head)
	}
	if head < 100*time.Millisecond || tail > 30*time.Second {
		t.Errorf("hints outside clamp: head %v, tail %v", head, tail)
	}
}
