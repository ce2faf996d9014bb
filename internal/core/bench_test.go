package core

import (
	"fmt"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// grid400Config is the paper deployment on a 4x wider field at the same
// group density: 400 groups, where spatial pruning pays more.
func grid400Config() deploy.Config {
	cfg := deploy.PaperConfig()
	cfg.Field = geom.NewRect(geom.Pt(0, 0), geom.Pt(2000, 2000))
	cfg.GroupsX, cfg.GroupsY = 20, 20
	return cfg
}

// BenchmarkTrain times threshold training (300 trials, diff metric) per
// deployment and simulation epoch. One worker, so the row measures the
// per-trial cost the epoch changes rather than goroutine scheduling.
func BenchmarkTrain(b *testing.B) {
	for name, cfg := range map[string]deploy.Config{"paper100": deploy.PaperConfig(), "grid400": grid400Config()} {
		model := deploy.MustNew(cfg)
		for _, epoch := range []int{1, 2} {
			tc := TrainConfig{Trials: 300, Percentile: 99, Seed: 41, KeepInField: true, Workers: 1, SimEpoch: epoch}
			b.Run(fmt.Sprintf("%s/epoch%d", name, epoch), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := Train(model, DiffMetric{}, tc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSnapshotCodec times the paper deployment's snapshot codec:
// canonical encode into a reused buffer (what the pool pays per save)
// and strict decode into a reused receiver (per adoption).
func BenchmarkSnapshotCodec(b *testing.B) {
	s, _ := snapshotOf(b, paperModel(), TrainConfig{Trials: 300, Percentile: 99, Seed: 41, KeepInField: true})
	buf := s.AppendBinary(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf = s.AppendBinary(buf[:0])
		}
	})
	var dst Snapshot
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := dst.UnmarshalBinary(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpoint times the training scheduler's checkpoint seam on
// the paper deployment (probability metric, 300 trials, 100-trial
// batches): checkpoint encode and decode into reused buffers, a run from
// trial zero, and decode + resume + the last 20% from an 80%-progress
// checkpoint, which is what a restarted daemon pays instead.
func BenchmarkCheckpoint(b *testing.B) {
	model := paperModel()
	tc := TrainConfig{Trials: 300, Percentile: 99, Seed: 43, KeepInField: true, SimEpoch: 1}
	finish := func(b *testing.B, run *TrainRun) {
		for !run.Done() {
			if _, err := run.RunBatch(100); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := run.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	partial, err := NewTrainRun(model, ProbMetric{}, tc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := partial.RunBatch(240); err != nil {
		b.Fatal(err)
	}
	ck := Snapshot{SpecKey: "bench", DeploymentHash: model.Config().Hash()}
	partial.CheckpointInto(&ck)
	buf := ck.AppendBinary(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf = ck.AppendBinary(buf[:0])
		}
	})
	var dst Snapshot
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := dst.UnmarshalBinary(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		for b.Loop() {
			run, err := NewTrainRun(model, ProbMetric{}, tc)
			if err != nil {
				b.Fatal(err)
			}
			finish(b, run)
		}
	})
	b.Run("resume", func(b *testing.B) {
		for b.Loop() {
			c, err := DecodeSnapshot(buf)
			if err != nil {
				b.Fatal(err)
			}
			run, err := ResumeTrainRun(model, ProbMetric{}, tc, c)
			if err != nil {
				b.Fatal(err)
			}
			finish(b, run)
		}
	})
}
