package core

import (
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/localize"
	"repro/internal/rng"
)

func TestBenignScoresShapeAndDeterminism(t *testing.T) {
	model := paperModel()
	cfg := TrainConfig{Trials: 120, Percentile: 99, Seed: 7, KeepInField: true}
	s1, err := BenignScores(model, AllMetrics(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 3 || len(s1[0]) != 120 {
		t.Fatalf("shape: %d metrics × %d trials", len(s1), len(s1[0]))
	}
	// Determinism across worker counts.
	cfg.Workers = 1
	s2, err := BenignScores(model, AllMetrics(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range s1 {
		for ti := range s1[mi] {
			if s1[mi][ti] != s2[mi][ti] {
				t.Fatalf("scores differ across worker counts at [%d][%d]", mi, ti)
			}
		}
	}
}

// TestBenignLocalizationErrorIsModest is a benign-accuracy check of the
// beaconless MLE on 120 in-field sensors drawn from the deployment
// model: not every trial fails, and the mean error over the trials that
// localize is at most 15 m. Failed trials (isolated sensors) are left
// out of the mean rather than counted as 0 m.
func TestBenignLocalizationErrorIsModest(t *testing.T) {
	model := paperModel()
	sess := localize.NewBeaconlessModel(model).NewSession()
	o := make([]int, model.NumGroups())
	master := rng.New(7)
	const trials = 120
	var sum float64
	n := 0
	for range trials {
		r := rng.New(master.Uint64())
		group, la := model.SampleLocation(r)
		for !model.Field().Contains(la) {
			group, la = model.SampleLocation(r)
		}
		model.SampleObservationInto(o, la, group, r)
		le, err := sess.BindLocalize(o)
		if err != nil {
			continue
		}
		sum += le.Dist(la)
		n++
	}
	if n == 0 {
		t.Fatal("every benign trial failed to localize")
	}
	if mean := sum / float64(n); mean > 15 {
		t.Errorf("mean benign localization error = %.1f m over %d of %d trials", mean, n, trials)
	}
}

func TestBenignScoresValidation(t *testing.T) {
	model := paperModel()
	if _, err := BenignScores(model, AllMetrics(), TrainConfig{Trials: 0, Percentile: 99}); err == nil {
		t.Error("zero trials should fail")
	}
	if _, err := BenignScores(model, AllMetrics(), TrainConfig{Trials: 10, Percentile: 0}); err == nil {
		t.Error("bad percentile should fail")
	}
	if _, err := BenignScores(model, AllMetrics(), TrainConfig{Trials: 10, Percentile: 101}); err == nil {
		t.Error("bad percentile should fail")
	}
	if _, err := BenignScores(model, AllMetrics(), TrainConfig{Trials: 10, Percentile: math.NaN()}); err == nil {
		t.Error("NaN percentile should fail")
	}
	if _, _, err := Train(model, DiffMetric{}, TrainConfig{Trials: 10, Percentile: math.NaN()}); err == nil {
		t.Error("NaN percentile should fail Train")
	}
	if _, err := BenignScores(model, nil, TrainConfig{Trials: 10, Percentile: 99}); err == nil {
		t.Error("no metrics should fail")
	}
}

func TestTrainProducesCalibratedThreshold(t *testing.T) {
	model := paperModel()
	det, scores, err := Train(model, DiffMetric{}, TrainConfig{
		Trials: 400, Percentile: 95, Seed: 11, KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 5% of the training scores exceed the threshold.
	over := 0
	for _, s := range scores {
		if s > det.Threshold() {
			over++
		}
	}
	rate := float64(over) / float64(len(scores))
	if rate < 0.02 || rate > 0.08 {
		t.Errorf("training FP rate = %v, want ≈ 0.05", rate)
	}
	if th := ThresholdFromScores(scores, 95); th != det.Threshold() {
		t.Errorf("ThresholdFromScores = %v, Train threshold = %v", th, det.Threshold())
	}
}

func TestTrainedDetectorCatchesLargeDAnomalies(t *testing.T) {
	// End-to-end core check: the trained Diff detector must detect nearly
	// all D=160 Dec-Bounded attacks with x=10% compromised neighbors —
	// the paper's headline result (Figure 4, right panel).
	model := paperModel()
	det, _, err := Train(model, DiffMetric{}, TrainConfig{
		Trials: 600, Percentile: 99, Seed: 13, KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	const trials = 150
	detected := 0
	for i := 0; i < trials; i++ {
		group, la := model.SampleLocation(r)
		if !model.Field().Contains(la) {
			i--
			continue
		}
		a := model.SampleObservation(la, group, r)
		le := attack.ForgeLocationInField(la, 160, model.Field(), r, 64)
		e := NewExpectation(model, le)
		var total int
		for _, c := range a {
			total += c
		}
		x := int(0.10 * float64(total))
		o := attack.NewDiffMinimizer(e.Mu, attack.DecBounded).Taint(a, x)
		if det.CheckWithExpectation(o, e).Alarm {
			detected++
		}
	}
	dr := float64(detected) / trials
	if dr < 0.95 {
		t.Errorf("D=160 detection rate = %v, want > 0.95", dr)
	}
}

func TestSmallDAnomaliesEvadeDetection(t *testing.T) {
	// Converse shape check (Figure 7, left end): D=20 attacks are nearly
	// indistinguishable from benign localization noise.
	model := paperModel()
	det, _, err := Train(model, DiffMetric{}, TrainConfig{
		Trials: 600, Percentile: 99, Seed: 19, KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	const trials = 120
	detected := 0
	for i := 0; i < trials; i++ {
		group, la := model.SampleLocation(r)
		if !model.Field().Contains(la) {
			i--
			continue
		}
		a := model.SampleObservation(la, group, r)
		le := attack.ForgeLocationInField(la, 20, model.Field(), r, 64)
		e := NewExpectation(model, le)
		var total int
		for _, c := range a {
			total += c
		}
		x := int(0.10 * float64(total))
		o := attack.NewDiffMinimizer(e.Mu, attack.DecBounded).Taint(a, x)
		if det.CheckWithExpectation(o, e).Alarm {
			detected++
		}
	}
	dr := float64(detected) / trials
	if dr > 0.5 {
		t.Errorf("D=20 detection rate = %v; LAD should NOT catch sub-noise attacks", dr)
	}
}

func TestCorrectorRecovers(t *testing.T) {
	model := paperModel()
	c := NewCorrector(model)
	r := rng.New(29)
	var plainSum, trimSum, forgedSum float64
	const trials = 40
	n := 0
	for i := 0; i < trials; i++ {
		group, la := model.SampleLocation(r)
		if !model.Field().Contains(la) {
			continue
		}
		a := model.SampleObservation(la, group, r)
		le := attack.ForgeLocationInField(la, 150, model.Field(), r, 64)
		e := NewExpectation(model, le)
		var total int
		for _, cnt := range a {
			total += cnt
		}
		o := attack.NewDiffMinimizer(e.Mu, attack.DecBounded).Taint(a, int(0.10*float64(total)))

		plain, err := c.Correct(o)
		if err != nil {
			continue
		}
		trimmed, _, err := c.CorrectTrimmed(o)
		if err != nil {
			continue
		}
		plainSum += plain.Dist(la)
		trimSum += trimmed.Dist(la)
		forgedSum += le.Dist(la) // = 150 by construction
		n++
	}
	if n < trials/2 {
		t.Fatalf("too few corrections: %d", n)
	}
	plainMean := plainSum / float64(n)
	trimMean := trimSum / float64(n)
	forgedMean := forgedSum / float64(n)
	// Correction must beat accepting the forged location outright.
	if plainMean >= forgedMean {
		t.Errorf("plain correction (%.1f m) no better than forged error (%.1f m)",
			plainMean, forgedMean)
	}
	if trimMean >= forgedMean {
		t.Errorf("trimmed correction (%.1f m) no better than forged error (%.1f m)",
			trimMean, forgedMean)
	}
}

func TestCorrectorEmptyObservation(t *testing.T) {
	c := NewCorrector(paperModel())
	if _, err := c.Correct(make([]int, 100)); err == nil {
		t.Error("empty observation should fail")
	}
	if _, _, err := c.CorrectTrimmed(make([]int, 100)); err == nil {
		t.Error("empty observation should fail")
	}
}

func TestBenignScoresAreModest(t *testing.T) {
	// Sanity on absolute scale: benign Diff scores cluster well below the
	// count of total neighbors (≈ 2·E|binomial noise| summed).
	model := paperModel()
	scores, err := BenignScores(model, []Metric{DiffMetric{}}, TrainConfig{
		Trials: 200, Percentile: 99, Seed: 31, KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, s := range scores[0] {
		max = math.Max(max, s)
	}
	if max > 250 {
		t.Errorf("benign Diff score max = %v, implausibly large", max)
	}
}

func TestTrimmedCorrectionIsDocumentedNegative(t *testing.T) {
	// The corrector doc and the figure that reproduces it (`ladsim
	// -figure correct`, series "trimmed-MLE correction") state that
	// residual trimming does not beat the plain MLE against the
	// Diff-greedy attacker. Pin that finding so a future "fix" that flips
	// it updates the docs too.
	model := paperModel()
	c := NewCorrector(model)
	r := rng.New(61)
	var plainSum, trimSum float64
	n := 0
	for i := 0; i < 60; i++ {
		group, la := model.SampleLocation(r)
		if !model.Field().Contains(la) {
			continue
		}
		a := model.SampleObservation(la, group, r)
		le := attack.ForgeLocationInField(la, 120, model.Field(), r, 64)
		e := NewExpectation(model, le)
		var total int
		for _, cnt := range a {
			total += cnt
		}
		o := attack.NewDiffMinimizer(e.Mu, attack.DecBounded).Taint(a, int(0.10*float64(total)))
		p, err := c.Correct(o)
		if err != nil {
			continue
		}
		tr, _, err := c.CorrectTrimmed(o)
		if err != nil {
			continue
		}
		plainSum += p.Dist(la)
		trimSum += tr.Dist(la)
		n++
	}
	if n < 30 {
		t.Fatalf("too few corrections: %d", n)
	}
	if trimSum < plainSum*0.95 {
		t.Errorf("trimming now beats plain MLE (%.1f vs %.1f): update the docs",
			trimSum/float64(n), plainSum/float64(n))
	}
}
