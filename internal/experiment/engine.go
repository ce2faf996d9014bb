// Package experiment is the Monte-Carlo harness that regenerates every
// figure of the LAD paper's evaluation (Section 7). It glues together the
// deployment model, the beaconless localization scheme, the greedy
// observation adversaries and the LAD metrics, fanning trials out over a
// worker pool with per-trial RNG substreams for scheduling-independent
// determinism.
//
// Trial procedure (Section 7.1):
//
//  1. Draw a victim: group, actual location L_a, untainted observation
//     a_i ~ Binomial(m, g_i(L_a)).
//  2. Benign trials: localize with the beaconless MLE to get L_e and
//     score each metric at L_e — these scores yield both the training
//     thresholds (τ-percentile) and the false-positive axis.
//  3. Attacked trials: forge L_e at distance exactly D from L_a
//     (D-anomaly), give the attacker x = ⌈x%·|a|⌉ compromised neighbors,
//     and let the class/metric-matched greedy strategy taint a → o. The
//     metric score of (o, L_e) lands on the detection-rate axis.
package experiment

import (
	"errors"
	"runtime"
	"sync"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/rng"
)

// Options tune the harness globally.
type Options struct {
	// BenignTrials per configuration (training + FP measurement).
	BenignTrials int
	// AttackTrials per (D, x, class, metric) point.
	AttackTrials int
	// Seed drives everything; same seed = same figures.
	Seed uint64
	// Workers caps the pool; 0 = GOMAXPROCS.
	Workers int
	// SimEpoch selects the benign-simulation epoch
	// (core.TrainConfig.SimEpoch): 0/1 the bit-identical reference path,
	// 2 the fast table-sampler path (distribution-level equivalent, so
	// figures keep their shape but not their exact points). Attack trials
	// always draw through the epoch-1 sampler — the attacked observation
	// is the "real world", not the training simulation.
	SimEpoch int
}

// DefaultOptions are the full-fidelity trial counts: 4000 benign trials
// per configuration and 1500 attacked trials per point. Benign trials
// default to simulation epoch 2 (the table-sampler fast path):
// full-fidelity figure runs are benign-trial dominated and the epoch-2
// distribution equivalence is exactly the contract figures need — curve
// shapes, not bit-exact points. Pass SimEpoch 1 (ladsim: -sim-epoch 1)
// to regenerate the bit-identical reference figures; QuickFigureOptions
// and the golden tests stay on epoch 1.
func DefaultOptions() Options {
	return Options{BenignTrials: 4000, AttackTrials: 1500, Seed: 20050425, SimEpoch: 2}
}

// normalize checks o and fills its defaults: it rejects non-positive
// trial counts and a SimEpoch outside 0–2, and sets Workers to
// GOMAXPROCS when it is not positive.
func (o Options) normalize() (Options, error) {
	if o.BenignTrials <= 0 || o.AttackTrials <= 0 {
		return o, errors.New("experiment: trial counts must be positive")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SimEpoch < 0 || o.SimEpoch > 2 {
		return o, errors.New("experiment: SimEpoch must be 0 (default), 1, or 2")
	}
	return o, nil
}

// StrategyFor returns the greedy taint strategy of Section 7.1 matched to
// a metric: the attacker knows which metric the detector runs and
// minimizes exactly that one (for Probability: maximizes the min
// probability).
func StrategyFor(metric core.Metric, e *core.Expectation, class attack.Class) attack.Strategy {
	switch metric.(type) {
	case core.DiffMetric:
		return attack.NewDiffMinimizer(e.Mu, class)
	case core.AddAllMetric:
		return attack.NewAddAllMinimizer(e.Mu, class)
	case core.ProbMetric:
		return attack.NewProbMaximizer(e.G, e.M, class)
	default:
		// Unknown metric: the strongest generic choice is the Diff greedy.
		return attack.NewDiffMinimizer(e.Mu, class)
	}
}

// AttackPoint identifies one attacked configuration.
type AttackPoint struct {
	D     float64      // degree of damage (|L_e − L_a| forced by the attack)
	XFrac float64      // fraction of the victim's neighbors compromised
	Class attack.Class // Dec-Bounded or Dec-Only
}

// AttackScores simulates cfg.AttackTrials attacked victims for one point
// and returns the metric scores the detector would see.
func AttackScores(model *deploy.Model, metric core.Metric, pt AttackPoint, opts Options) ([]float64, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	scores := make([]float64, opts.AttackTrials)

	master := rng.New(opts.Seed ^ 0xa77ac4)
	seeds := make([]uint64, opts.AttackTrials)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	var wg sync.WaitGroup
	next := make(chan int, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := make([]int, model.NumGroups())
			for t := range next {
				r := rng.New(seeds[t])
				group, la := model.SampleLocation(r)
				for !model.Field().Contains(la) {
					group, la = model.SampleLocation(r)
				}
				model.SampleObservationInto(a, la, group, r)
				le := attack.ForgeLocationInField(la, pt.D, model.Field(), r, 64)
				e := core.NewExpectation(model, le)
				o := StrategyFor(metric, e, pt.Class).Taint(a, attack.Compromised(a, pt.XFrac))
				scores[t] = metric.Score(o, e)
			}
		}()
	}
	for t := 0; t < opts.AttackTrials; t++ {
		next <- t
	}
	close(next)
	wg.Wait()
	return scores, nil
}

// Benign wraps core.BenignScores with the harness options; the same
// benign sample serves every metric.
func Benign(model *deploy.Model, metrics []core.Metric, opts Options) ([][]float64, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	return core.BenignScores(model, metrics, core.TrainConfig{
		Trials:      opts.BenignTrials,
		Percentile:  99, // percentile irrelevant here; scores are returned raw
		Seed:        opts.Seed ^ 0xbe419,
		Workers:     opts.Workers,
		KeepInField: true,
		SimEpoch:    opts.SimEpoch,
	})
}

// DetectionRate measures the share of attacked scores above the
// threshold.
func DetectionRate(attacked []float64, threshold float64) float64 {
	if len(attacked) == 0 {
		return 0
	}
	hits := 0
	for _, s := range attacked {
		if s > threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(attacked))
}
