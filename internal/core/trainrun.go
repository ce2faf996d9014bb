package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/deploy"
	"repro/internal/localize"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// trialRunner owns the per-worker reusable state of the benign trial
// loop: the observation buffer, the localization Session (active-set
// and search scratch), the scoring Expectation, the per-metric score
// scratch, and the RNG (reseeded per trial, bit-identical to a fresh
// generator). Every trial of every run executes through it, which is
// what makes a resumed batch run bit-identical to an uninterrupted one
// by construction.
type trialRunner struct {
	o    []int
	out  []float64 // per-metric score scratch, len == len(metrics)
	sess *localize.Session
	e    *Expectation
	r    *rng.Rand
}

func newTrialRunner(model *deploy.Model, loc *localize.Beaconless, nmetrics int) *trialRunner {
	n := model.NumGroups()
	return &trialRunner{
		o:    make([]int, n),
		out:  make([]float64, nmetrics),
		sess: loc.NewSession(),
		e:    &Expectation{G: make([]float64, n), Mu: make([]float64, n)},
		r:    rng.New(0),
	}
}

// trial runs the full body of one benign trial from its pre-derived
// seed: draw a victim (redrawn into the field under KeepInField), draw
// its observation through the epoch-selected sampler, localize, and
// score every metric into w.out. Isolated sensors score 0 under every
// metric: localization is impossible and LAD has nothing to verify, so
// the trial never alarms.
// Steady state the body performs no heap allocations, and since the
// stream depends only on seed, the result is independent of which
// worker runs the trial and in which order.
func (w *trialRunner) trial(model *deploy.Model, cfg *TrainConfig, seed uint64, metrics []Metric) {
	w.r.Reseed(seed)
	group, la := model.SampleLocation(w.r)
	if cfg.KeepInField {
		for !model.Field().Contains(la) {
			group, la = model.SampleLocation(w.r)
		}
	}
	if cfg.SimEpoch >= 2 {
		model.SampleObservationTableInto(w.o, la, group, w.r)
	} else {
		model.SampleObservationInto(w.o, la, group, w.r)
	}
	le, err := w.sess.BindLocalize(w.o)
	if err != nil {
		for mi := range metrics {
			w.out[mi] = 0
		}
		return
	}
	w.e.Fill(model, le)
	for mi, m := range metrics {
		w.out[mi] = m.Score(w.o, w.e)
	}
}

// TrainRun is the Monte-Carlo trial driver of Section 5.5, sliced into
// batches: the caller decides when each slice of trials executes and may
// checkpoint durable progress between slices. Train and BenignScores
// are single-batch runs; the serving scheduler interleaves batches of
// many runs on a fixed worker pool (fair-share) and resumes a run from
// its last checkpoint after eviction or a crash. For a given
// TrainConfig, the finished threshold and benign sample are bit-identical
// regardless of batch sizes, worker counts, interleaving, or resume
// points — per-trial RNG substreams are pre-derived from the master
// seed, so trial t depends only on its own seed.
//
// A TrainRun is not safe for concurrent use; one batch executes at a
// time (the batch itself fans out over cfg.Workers goroutines).
type TrainRun struct {
	model   *deploy.Model
	metrics []Metric // metrics[0] is the run's detector metric
	cfg     TrainConfig
	loc     *localize.Beaconless
	seeds   []uint64
	scores  [][]float64 // per metric, in trial order
	done    int
	workers []*trialRunner
}

// NewTrainRun prepares a batched training run of one metric, starting
// from trial zero.
func NewTrainRun(model *deploy.Model, metric Metric, cfg TrainConfig) (*TrainRun, error) {
	return newTrainRun(model, []Metric{metric}, cfg)
}

// newTrainRun prepares a run scoring every metric per trial.
func newTrainRun(model *deploy.Model, metrics []Metric, cfg TrainConfig) (*TrainRun, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(metrics) == 0 || slices.Contains(metrics, nil) {
		return nil, errors.New("core: no metric given")
	}
	loc := localize.NewBeaconlessModel(model)
	loc.SetSimEpoch(cfg.SimEpoch)

	// Pre-derive per-trial seeds so neither scheduling nor batch
	// boundaries can perturb results, which is what makes resume
	// bit-identity possible at all.
	master := rng.New(cfg.Seed)
	seeds := make([]uint64, cfg.Trials)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	tr := &TrainRun{
		model:   model,
		metrics: metrics,
		cfg:     cfg,
		loc:     loc,
		seeds:   seeds,
		scores:  make([][]float64, len(metrics)),
	}
	for mi := range tr.scores {
		tr.scores[mi] = make([]float64, cfg.Trials)
	}
	return tr, nil
}

// ResumeTrainRun rebuilds a batched run from a checkpoint (a partial
// Snapshot): trials [0, TrialsDone) adopt the stored scores and
// execution continues at the next trial. The checkpoint must validate
// and must have been taken under exactly this metric and training
// configuration — any disagreement returns ErrSnapshotMismatch (the
// seed schedule or trial bodies would diverge and the spliced sample
// would be silently wrong). Identity fields (SpecKey, DeploymentHash)
// are the caller's to verify; core checks the training configuration
// proper.
func ResumeTrainRun(model *deploy.Model, metric Metric, cfg TrainConfig, ck *Snapshot) (*TrainRun, error) {
	tr, err := NewTrainRun(model, metric, cfg)
	if err != nil {
		return nil, err
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	if ck.Metric != metric.Name() ||
		ck.Trials != tr.cfg.Trials ||
		ck.TrainPercentile != tr.cfg.Percentile ||
		ck.Seed != tr.cfg.Seed ||
		ck.KeepInField != tr.cfg.KeepInField ||
		ck.SimEpoch != tr.cfg.SimEpoch {
		return nil, fmt.Errorf("%w: checkpoint (%s, %d trials, τ=%g, seed %d, epoch %d) vs run (%s, %d, τ=%g, %d, %d)",
			ErrSnapshotMismatch,
			ck.Metric, ck.Trials, ck.TrainPercentile, ck.Seed, ck.SimEpoch,
			metric.Name(), tr.cfg.Trials, tr.cfg.Percentile, tr.cfg.Seed, tr.cfg.SimEpoch)
	}
	copy(tr.scores[0][:ck.TrialsDone], ck.BenignSample)
	tr.done = ck.TrialsDone
	return tr, nil
}

// Trials returns the total trial budget; TrialsDone the number already
// completed; Done whether the budget is exhausted and Finish may be
// called.
func (tr *TrainRun) Trials() int     { return tr.cfg.Trials }
func (tr *TrainRun) TrialsDone() int { return tr.done }
func (tr *TrainRun) Done() bool      { return tr.done >= tr.cfg.Trials }

// RunBatch executes up to n further trials (clamped to the remaining
// budget; n <= 0 runs them all) over the run's worker pool and returns
// how many completed. It is the only trial-dispatch loop in the package.
// Cancellation (TrainConfig.Cancel) is checked between trial
// dispatches; on cancel the batch returns ErrTrainingCanceled and
// progress stays at the previous batch boundary — partially computed
// trials are recomputed (bit-identically) on resume rather than
// checkpointed.
//
//lad:ctx
func (tr *TrainRun) RunBatch(n int) (int, error) {
	remaining := tr.cfg.Trials - tr.done
	if remaining <= 0 {
		return 0, nil
	}
	if n <= 0 || n > remaining {
		n = remaining
	}
	if tr.workers == nil {
		workers := tr.cfg.Workers
		tr.workers = make([]*trialRunner, workers)
		for i := range tr.workers {
			tr.workers[i] = newTrialRunner(tr.model, tr.loc, len(tr.metrics))
		}
	}
	lo, hi := tr.done, tr.done+n
	var wg sync.WaitGroup
	next := make(chan int, len(tr.workers))
	for _, w := range tr.workers {
		wg.Add(1)
		go func(w *trialRunner) {
			defer wg.Done()
			//lint:ignore ladvet/ctxcheck bounded: the producer sends at most one batch of indices and closes next early when TrainConfig.Cancel trips
			for t := range next {
				tr.trialInto(w, t)
			}
		}(w)
	}
	canceled := false
	for t := lo; t < hi; t++ {
		// With a nil Cancel the second case can never fire and the
		// select degenerates to the plain send.
		select {
		case next <- t:
		case <-tr.cfg.Cancel:
			canceled = true
		}
		if canceled {
			break
		}
	}
	close(next)
	wg.Wait()
	if canceled {
		return 0, ErrTrainingCanceled
	}
	tr.done = hi
	return n, nil
}

// trialInto runs trial t on worker w and records its scores.
func (tr *TrainRun) trialInto(w *trialRunner, t int) {
	w.trial(tr.model, &tr.cfg, tr.seeds[t], tr.metrics)
	for mi := range tr.metrics {
		tr.scores[mi][t] = w.out[mi]
	}
}

// CheckpointInto captures the run's durable progress into ck as a
// partial Snapshot, reusing its score buffer (0 allocs/op at steady
// state). Identity fields the run does not own (SpecKey,
// DeploymentHash) are left untouched — the caller sets them once on its
// reused receiver. Call it between batches of an unfinished run: a
// zero-progress checkpoint fails Validate (start from scratch instead),
// and a finished run's sample belongs in a detector's snapshot, sorted.
func (tr *TrainRun) CheckpointInto(ck *Snapshot) {
	ck.Deployment = tr.model.Config()
	ck.Metric = tr.metrics[0].Name()
	ck.Trials = tr.cfg.Trials
	ck.TrainPercentile = tr.cfg.Percentile
	ck.Seed = tr.cfg.Seed
	ck.KeepInField = tr.cfg.KeepInField
	ck.SimEpoch = tr.cfg.SimEpoch
	ck.TrialsDone = tr.done
	ck.Threshold = 0
	ck.Percentile = tr.cfg.Percentile
	ck.TrainSeconds = 0
	ck.BenignSample = append(ck.BenignSample[:0], tr.scores[0][:tr.done]...)
}

// Finish cuts the τ-percentile threshold from the completed benign
// sample and returns the detector plus the sample in trial order.
func (tr *TrainRun) Finish() (*Detector, []float64, error) {
	if tr.done < tr.cfg.Trials {
		return nil, nil, fmt.Errorf("core: training incomplete: %d of %d trials", tr.done, tr.cfg.Trials)
	}
	th := mathx.Percentile(tr.scores[0], tr.cfg.Percentile)
	return NewDetector(tr.model, tr.metrics[0], th), tr.scores[0], nil
}
