package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// trainRunLayouts are the deployment arrangements the resume
// bit-identity property is proven over.
var trainRunLayouts = []struct {
	name   string
	layout deploy.Layout
}{
	{"grid", deploy.LayoutGrid},
	{"hex", deploy.LayoutHex},
	{"random", deploy.LayoutRandom},
}

func trainRunConfig(layout deploy.Layout) deploy.Config {
	return deploy.Config{
		Field:      geom.NewRect(geom.Pt(0, 0), geom.Pt(300, 300)),
		GroupsX:    3,
		GroupsY:    3,
		GroupSize:  40,
		Sigma:      50,
		Range:      150,
		Layout:     layout,
		RandomSeed: 7,
	}
}

func trainRunTC() TrainConfig {
	return TrainConfig{Trials: 60, Percentile: 95, Seed: 11, KeepInField: true, Workers: 3, SimEpoch: 1}
}

// TestTrainRunMatchesTrain: slicing a run into uneven batches must not
// move a single bit of the threshold or the benign sample, on every
// layout.
func TestTrainRunMatchesTrain(t *testing.T) {
	for _, lt := range trainRunLayouts {
		t.Run(lt.name, func(t *testing.T) {
			model := deploy.MustNew(trainRunConfig(lt.layout))
			tc := trainRunTC()
			det, want, err := Train(model, ProbMetric{}, tc)
			if err != nil {
				t.Fatal(err)
			}
			run, err := NewTrainRun(model, ProbMetric{}, tc)
			if err != nil {
				t.Fatal(err)
			}
			for !run.Done() {
				if _, err := run.RunBatch(7); err != nil {
					t.Fatal(err)
				}
			}
			gotDet, got, err := run.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if gotDet.Threshold() != det.Threshold() {
				t.Errorf("threshold %v, want %v", gotDet.Threshold(), det.Threshold())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("score[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestResumeBitIdentity is the crash-resume property: kill training at
// ANY batch boundary, round-trip the checkpoint through its wire form,
// resume in a fresh run with a different batch size and worker count —
// the finished threshold and benign sample are bit-identical to an
// uninterrupted run, on every layout.
func TestResumeBitIdentity(t *testing.T) {
	for _, lt := range trainRunLayouts {
		t.Run(lt.name, func(t *testing.T) {
			model := deploy.MustNew(trainRunConfig(lt.layout))
			tc := trainRunTC()
			det, want, err := Train(model, ProbMetric{}, tc)
			if err != nil {
				t.Fatal(err)
			}

			const killBatch = 9
			for boundary := killBatch; boundary < tc.Trials; boundary += killBatch {
				// Phase 1: train up to the kill point, checkpoint, "crash".
				run, err := NewTrainRun(model, ProbMetric{}, tc)
				if err != nil {
					t.Fatal(err)
				}
				for run.TrialsDone() < boundary {
					if _, err := run.RunBatch(killBatch); err != nil {
						t.Fatal(err)
					}
				}
				var ck Snapshot
				ck.SpecKey = "spec"
				ck.DeploymentHash = "hash"
				run.CheckpointInto(&ck)
				if ck.TrialsDone != boundary {
					t.Fatalf("checkpoint at boundary %d has %d trials done", boundary, ck.TrialsDone)
				}

				// Phase 2: decode from wire bytes and resume with a batch
				// size and worker count the first process never used.
				restored, err := DecodeSnapshot(ck.Encode())
				if err != nil {
					t.Fatal(err)
				}
				tc2 := tc
				tc2.Workers = 2
				resumed, err := ResumeTrainRun(model, ProbMetric{}, tc2, restored)
				if err != nil {
					t.Fatal(err)
				}
				for !resumed.Done() {
					if _, err := resumed.RunBatch(11); err != nil {
						t.Fatal(err)
					}
				}
				gotDet, got, err := resumed.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if gotDet.Threshold() != det.Threshold() {
					t.Errorf("boundary %d: threshold %v, want %v", boundary, gotDet.Threshold(), det.Threshold())
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("boundary %d: score[%d] = %v, want %v", boundary, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestTrainRunVaryingFanoutMatchesTrain: the serving scheduler grants
// each batch its own fan-out, so a run may go 1 → 3 → 2 → 1 workers
// between batches. The per-worker state grows and is reused across those
// changes without moving a bit of the sample or the threshold, under
// both simulation epochs.
func TestTrainRunVaryingFanoutMatchesTrain(t *testing.T) {
	model := deploy.MustNew(trainRunConfig(deploy.LayoutGrid))
	for _, epoch := range []int{1, 2} {
		tc := trainRunTC()
		tc.SimEpoch = epoch
		det, want, err := Train(model, ProbMetric{}, tc)
		if err != nil {
			t.Fatal(err)
		}
		run, err := NewTrainRun(model, ProbMetric{}, tc)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []struct{ workers, n int }{{1, 13}, {3, 17}, {2, 11}, {1, 0}} {
			run.SetWorkers(b.workers)
			if _, err := run.RunBatch(b.n); err != nil {
				t.Fatal(err)
			}
		}
		gotDet, got, err := run.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if gotDet.Threshold() != det.Threshold() {
			t.Fatalf("epoch %d: threshold %v, one-shot Train %v", epoch, gotDet.Threshold(), det.Threshold())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: trial %d score %v, one-shot Train %v", epoch, i, got[i], want[i])
			}
		}
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	model := deploy.MustNew(trainRunConfig(deploy.LayoutGrid))
	tc := trainRunTC()
	run, err := NewTrainRun(model, ProbMetric{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunBatch(10); err != nil {
		t.Fatal(err)
	}
	ck := &Snapshot{SpecKey: "spec", DeploymentHash: "hash"}
	run.CheckpointInto(ck)

	mutations := []struct {
		name string
		mut  func(c TrainConfig) TrainConfig
	}{
		{"seed", func(c TrainConfig) TrainConfig { c.Seed++; return c }},
		{"trials", func(c TrainConfig) TrainConfig { c.Trials++; return c }},
		{"percentile", func(c TrainConfig) TrainConfig { c.Percentile = 90; return c }},
		{"keep-in-field", func(c TrainConfig) TrainConfig { c.KeepInField = false; return c }},
		{"epoch", func(c TrainConfig) TrainConfig { c.SimEpoch = 2; return c }},
	}
	for _, m := range mutations {
		if _, err := ResumeTrainRun(model, ProbMetric{}, m.mut(tc), ck); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s mutation: err = %v, want ErrSnapshotMismatch", m.name, err)
		}
	}
	if _, err := ResumeTrainRun(model, DiffMetric{}, tc, ck); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("metric mutation: err = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := ResumeTrainRun(model, ProbMetric{}, tc, ck); err != nil {
		t.Errorf("unmutated resume failed: %v", err)
	}
}

func TestTrainRunCancel(t *testing.T) {
	model := deploy.MustNew(trainRunConfig(deploy.LayoutGrid))
	tc := trainRunTC()
	cancel := make(chan struct{})
	close(cancel)
	tc.Cancel = cancel
	run, err := NewTrainRun(model, ProbMetric{}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunBatch(10); !errors.Is(err, ErrTrainingCanceled) {
		t.Fatalf("err = %v, want ErrTrainingCanceled", err)
	}
	if run.TrialsDone() != 0 {
		t.Errorf("canceled batch advanced progress to %d", run.TrialsDone())
	}
	if _, _, err := run.Finish(); err == nil {
		t.Error("Finish on an incomplete run should fail")
	}
}

func TestCheckpointIntoLeavesIdentityAlone(t *testing.T) {
	model := deploy.MustNew(trainRunConfig(deploy.LayoutGrid))
	run, err := NewTrainRun(model, ProbMetric{}, trainRunTC())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RunBatch(10); err != nil {
		t.Fatal(err)
	}
	ck := &Snapshot{SpecKey: "caller-owned", DeploymentHash: "also-caller-owned"}
	run.CheckpointInto(ck)
	if ck.SpecKey != "caller-owned" || ck.DeploymentHash != "also-caller-owned" {
		t.Errorf("identity fields overwritten: %+v", ck)
	}
	if err := ck.Validate(); err != nil {
		t.Errorf("checkpoint invalid: %v", err)
	}
}

// TestEpochTwoTablesNotPinned: two concurrent epoch-2 runs of one
// deployment, each on a model of its own, share one set of sampler
// tables, and once both have finished nothing pins it — not the runs,
// not the models, not the trained detectors — so a collection frees it.
func TestEpochTwoTablesNotPinned(t *testing.T) {
	cfg := trainRunConfig(deploy.LayoutGrid)
	models := []*deploy.Model{deploy.MustNew(cfg), deploy.MustNew(cfg)}
	tc := trainRunTC()
	tc.SimEpoch = 2
	runs := make([]*TrainRun, len(models))
	for i, m := range models {
		tc.Seed = uint64(20 + i)
		tr, err := NewTrainRun(m, DiffMetric{}, tc)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = tr
	}
	if runs[0].binom == nil || runs[0].binom != runs[1].binom {
		t.Fatalf("runs hold tables %p and %p, want one shared set", runs[0].binom, runs[1].binom)
	}
	tables := weak.Make(runs[0].binom)

	dets := make([]*Detector, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, tr := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !tr.Done() {
				if _, errs[i] = tr.RunBatch(7); errs[i] != nil {
					return
				}
			}
			dets[i], _, errs[i] = tr.Finish()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if tables.Value() != nil {
		t.Error("epoch-2 tables survived a collection after both runs finished")
	}
	runtime.KeepAlive(runs)
	runtime.KeepAlive(models)
	runtime.KeepAlive(dets)
}
