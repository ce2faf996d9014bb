package serve

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/store"
)

// TestSpecKeySimEpochIdentity pins the key rule: epoch 0 (omitted)
// trains at epoch 2 and MUST share its key — clients compute a spec's
// id locally from the spec they send — while epoch 1 names a different
// training process and must not collide with either.
// TestUpgradeParentStore pins that epoch 1 keeps the pre-epoch key.
func TestSpecKeySimEpochIdentity(t *testing.T) {
	base := tinySpec()
	e0 := base
	e1 := base
	e1.Train.SimEpoch = 1
	e2 := base
	e2.Train.SimEpoch = 2

	if e0.Key() != e2.Key() {
		t.Errorf("epoch 0 and epoch 2 keys differ: %s vs %s", e0.Key(), e2.Key())
	}
	if e0.Key() == e1.Key() {
		t.Errorf("epoch 1 shares the default key %s", e0.Key())
	}
	if err := e2.Validate(); err != nil {
		t.Errorf("epoch-2 spec rejected: %v", err)
	}
	bad := base
	bad.Train.SimEpoch = 3
	if err := bad.Validate(); err == nil {
		t.Error("sim_epoch 3 accepted")
	}
}

// TestSnapshotSpecEpochRoundTrip checks the persist identity loop for
// every epoch: buildSnapshot stores the effective epoch,
// specFromSnapshot reproduces a spec whose key matches the stored one.
func TestSnapshotSpecEpochRoundTrip(t *testing.T) {
	for _, epoch := range []int{0, 1, 2} {
		snap := &core.Snapshot{SimEpoch: epoch}
		if snap.SimEpoch == 0 {
			snap.SimEpoch = 2 // what buildSnapshot stores for an omitted epoch
		}
		spec := specFromSnapshot(snap)
		if got := spec.Train.SimEpoch; got != snap.SimEpoch {
			t.Errorf("epoch %d: specFromSnapshot carried %d", epoch, got)
		}
		want := DetectorSpec{Train: TrainSpec{SimEpoch: epoch}}.Key()
		if spec.Key() != want {
			t.Errorf("epoch %d: adopted key %s != registered key %s", epoch, spec.Key(), want)
		}
	}
}

// TestOmittedEpochTrainsAtEpochTwo pins the served default: a spec
// without sim_epoch is the epoch-2 spec, and the pool trains it to the
// threshold core.Train reaches with spec.Train.TrainConfig() bit for
// bit, whatever the scheduler's batch size and concurrency. Reference
// trainers (ladperf's among them) rely on that. Its snapshot stores
// epoch 2.
func TestOmittedEpochTrainsAtEpochTwo(t *testing.T) {
	omitted := tinySpec()
	omitted.Train.Trials = 600
	e1, e2 := omitted, omitted
	e1.Train.SimEpoch, e2.Train.SimEpoch = 1, 2
	if omitted.Key() != e2.Key() || omitted.ID() != e2.ID() {
		t.Errorf("omitted epoch id %s, epoch-2 id %s", omitted.ID(), e2.ID())
	}
	if omitted.ID() == e1.ID() {
		t.Errorf("omitted epoch shares the epoch-1 id %s", e1.ID())
	}
	if got := omitted.Train.TrainConfig().SimEpoch; got != 2 {
		t.Fatalf("TrainConfig().SimEpoch = %d, want 2", got)
	}

	second := omitted
	second.Train.Seed++
	specs := []DetectorSpec{omitted, second}
	want := make([]float64, len(specs))
	for i, s := range specs {
		det, _, err := core.Train(deploy.MustNew(s.Deployment), core.MetricByName(s.Metric), s.Train.TrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = det.Threshold()
	}
	ref1, _, err := core.Train(deploy.MustNew(e1.Deployment), core.MetricByName(e1.Metric), e1.Train.TrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ref1.Threshold() == want[0] {
		t.Fatalf("epoch-1 and epoch-2 thresholds both %v: the check cannot tell the epochs apart", want[0])
	}

	for _, batch := range []int{37, 500} {
		for _, conc := range []int{1, 2} {
			fs, err := store.OpenFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p := NewDetectorPool(0)
			p.SetStore(fs)
			p.SetTrainConcurrency(conc)
			p.SetSchedBatchTrials(batch)
			dets := make([]*core.Detector, len(specs))
			errs := make([]error, len(specs))
			var wg sync.WaitGroup
			for i, s := range specs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dets[i], errs[i] = p.await(s)
				}()
			}
			wg.Wait()
			for i := range specs {
				if errs[i] != nil {
					t.Fatalf("batch %d, concurrency %d: %v", batch, conc, errs[i])
				}
				if got := dets[i].Threshold(); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("batch %d, concurrency %d, spec %d: pool threshold %v, core.Train %v", batch, conc, i, got, want[i])
				}
			}
			waitSaves(t, p, uint64(len(specs)))
			data, err := fs.Get(omitted.ID())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := core.DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if snap.SimEpoch != 2 {
				t.Errorf("snapshot stores epoch %d, want 2", snap.SimEpoch)
			}
		}
	}
}
