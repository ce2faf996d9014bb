package core

import (
	"errors"
	"math"
	"runtime"

	"repro/internal/deploy"
	"repro/internal/mathx"
)

// TrainConfig controls threshold training (Section 5.5).
type TrainConfig struct {
	// Trials is the number of simulated benign sensors.
	Trials int
	// Percentile is τ: the share (in percent, e.g. 99) of benign metric
	// results that must fall below the threshold; 100−τ is the target
	// false-positive rate.
	Percentile float64
	// Seed makes training deterministic.
	Seed uint64
	// Workers caps the worker pool; 0 = GOMAXPROCS.
	Workers int
	// KeepInField restricts training victims to resident points inside
	// the deployment field (edge sensors behave differently; the paper's
	// setup keeps the field large enough that this barely matters).
	KeepInField bool
	// SimEpoch selects the simulation epoch; 0 means the default, 1.
	// Epoch 1 is the bit-identity contract: trial streams, estimates,
	// scores, and thresholds are bit-identical to the scalar seed path
	// (and to every PR-2..8 golden). Epoch 2 spends that budget for
	// throughput: observations draw through deploy.Model's cached
	// inverse-CDF binomial tables (p quantized to the g-table grid) and
	// localization runs the fused full-poll probe search over a truncated
	// active set (localize.Beaconless.SetSimEpoch). Epoch-2 results are
	// distribution-level equivalent — threshold/detection-rate/FPR within
	// the tolerance bands pinned by the cross-epoch equivalence tests —
	// but NOT stream-compatible with epoch 1. Values other than 0, 1, 2
	// are rejected.
	SimEpoch int
	// Cancel, when non-nil, aborts the Monte-Carlo run: TrainRun.RunBatch
	// checks it between trial dispatches, stops dispatching once it is
	// closed, and returns ErrTrainingCanceled (as do Train and
	// BenignScores) after in-flight trials drain. The serving pool closes
	// it when a mid-training detector is deleted, so detached flights
	// stop burning cores instead of finishing a run nobody will read.
	Cancel <-chan struct{}
}

// ErrTrainingCanceled is returned by Train and BenignScores when
// TrainConfig.Cancel is closed before the trial budget completes. The
// partial score sample is discarded — a threshold cut from fewer trials
// than configured would silently move the operating point.
var ErrTrainingCanceled = errors.New("core: training canceled")

func (c *TrainConfig) normalize() error {
	if c.Trials <= 0 {
		return errors.New("core: TrainConfig.Trials must be positive")
	}
	if c.Percentile <= 0 || c.Percentile >= 100 {
		return errors.New("core: TrainConfig.Percentile must be in (0, 100)")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch c.SimEpoch {
	case 0:
		c.SimEpoch = 1
	case 1, 2:
	default:
		return errors.New("core: TrainConfig.SimEpoch must be 1 or 2")
	}
	return nil
}

// BenignScores simulates benign deployments and returns, per metric, the
// score distribution observed on Trials victim sensors. It is the shared
// engine behind the experiment harness's ROC curves and ensemble
// calibration: training data and false-positive measurements come from
// the same process as Train's.
//
// Each trial: draw a victim (group, actual location La), draw its
// observation o_i ~ Binomial(m, g_i(La)) with self-exclusion, estimate
// L_e with the beaconless MLE, then score every metric at L_e. Trials
// whose victims land outside the field (Gaussian tails) are redrawn when
// KeepInField is set.
//
// The run is one TrainRun batch over every trial (see TrainRun for the
// worker pool and the pre-derived per-trial seeds), so column i of the
// result is bit-identical to a single-metric run of metrics[i], and
// results are identical for any worker count.
//
// Trials whose localization fails (isolated sensors) carry a NaN entry in
// the returned localization errors; use SummarizeLocErrs to aggregate
// without the failures biasing the mean toward zero.
func BenignScores(model *deploy.Model, metrics []Metric, cfg TrainConfig) ([][]float64, []float64, error) {
	tr, err := newTrainRun(model, metrics, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	if _, err := tr.RunBatch(0); err != nil {
		return nil, nil, err
	}
	return tr.scores, tr.locErrs, nil
}

// Train derives a detector for one metric: the threshold is the
// τ-percentile of the benign score distribution. The benign scores are
// returned alongside so callers can reuse them for ROC curves. It is a
// TrainRun executed in a single batch.
func Train(model *deploy.Model, metric Metric, cfg TrainConfig) (*Detector, []float64, error) {
	tr, err := NewTrainRun(model, metric, cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := tr.RunBatch(0); err != nil {
		return nil, nil, err
	}
	return tr.Finish()
}

// ThresholdFromScores computes the τ-percentile threshold from an
// existing benign score sample.
func ThresholdFromScores(scores []float64, tau float64) float64 {
	return mathx.Percentile(scores, tau)
}

// SummarizeLocErrs aggregates the localization errors returned by
// BenignScores: the mean over successful trials and the count of failed
// ones (NaN entries, i.e. isolated sensors that could not localize).
// Failures are excluded from the mean rather than counted as 0 m, which
// would silently bias accuracy summaries downward. The mean is NaN when
// every trial failed.
func SummarizeLocErrs(locErrs []float64) (mean float64, failures int) {
	var sum float64
	n := 0
	for _, e := range locErrs {
		if math.IsNaN(e) {
			failures++
			continue
		}
		sum += e
		n++
	}
	if n == 0 {
		return math.NaN(), failures
	}
	return sum / float64(n), failures
}
