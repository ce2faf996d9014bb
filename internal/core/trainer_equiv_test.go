package core

import (
	"testing"

	"repro/internal/deploy"
)

// TestBenignScoresMatchesSingleMetricRuns pins the driver unification:
// BenignScores is one multi-metric TrainRun batch, and each of its
// columns must equal a single-metric TrainRun of that metric driven in
// uneven batches (7, 64, then the rest) with one and three workers —
// on the paper grid and a random layout, under both simulation epochs.
func TestBenignScoresMatchesSingleMetricRuns(t *testing.T) {
	for _, layout := range []deploy.Layout{deploy.LayoutGrid, deploy.LayoutRandom} {
		cfgD := deploy.PaperConfig()
		cfgD.Layout = layout
		cfgD.RandomSeed = 7
		model := deploy.MustNew(cfgD)
		for _, epoch := range []int{1, 2} {
			cfg := TrainConfig{Trials: 150, Percentile: 99, Seed: 23, KeepInField: true, SimEpoch: epoch}
			cols, locErrs, err := BenignScores(model, AllMetrics(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(locErrs) != cfg.Trials {
				t.Fatalf("%v/epoch %d: %d localization errors, want %d", layout, epoch, len(locErrs), cfg.Trials)
			}
			for mi, metric := range AllMetrics() {
				for _, workers := range []int{1, 3} {
					c := cfg
					c.Workers = workers
					run, err := NewTrainRun(model, metric, c)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range []int{7, 64, 0} {
						if _, err := run.RunBatch(n); err != nil {
							t.Fatal(err)
						}
					}
					_, got, err := run.Finish()
					if err != nil {
						t.Fatal(err)
					}
					for ti, want := range cols[mi] {
						if got[ti] != want {
							t.Fatalf("%v/epoch %d/%s/%d workers: trial %d score %v, BenignScores column %v",
								layout, epoch, metric.Name(), workers, ti, got[ti], want)
						}
					}
				}
			}
		}
	}
}

// TestTrainThresholdIdenticalForAnyWorkerCount extends the existing
// determinism coverage through Train itself: per-worker sessions,
// reseeded RNGs, and reused expectations must not leak any state between
// trials, so every worker count produces the same threshold.
func TestTrainThresholdIdenticalForAnyWorkerCount(t *testing.T) {
	model := paperModel()
	var want float64
	for i, workers := range []int{1, 2, 3, 7} {
		cfg := TrainConfig{Trials: 90, Percentile: 95, Seed: 31, KeepInField: true, Workers: workers}
		det, _, err := Train(model, ProbMetric{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = det.Threshold()
			continue
		}
		if det.Threshold() != want {
			t.Fatalf("workers=%d: threshold %v != workers=1 threshold %v",
				workers, det.Threshold(), want)
		}
	}
}
