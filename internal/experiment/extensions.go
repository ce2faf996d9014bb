package experiment

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/localize"
	"repro/internal/mathx"
	"repro/internal/plot"
	"repro/internal/rng"
)

// ModelMismatch is the paper's stated future work ("the accuracy of the
// deployment knowledge model … will be studied"): LAD is trained against
// the assumed σ, but sensors actually scatter with σ′ ≠ σ. The experiment
// reports, per σ′, the realized false-positive rate at the trained
// threshold and the detection rate against a D=100, x=10% Dec-Bounded
// attack.
func ModelMismatch(opts Options) (Figure, error) {
	assumedCfg := deploy.PaperConfig()
	assumed, err := deploy.New(assumedCfg)
	if err != nil {
		return Figure{}, err
	}
	metric := core.DiffMetric{}
	benign, err := Benign(assumed, []core.Metric{metric}, opts)
	if err != nil {
		return Figure{}, err
	}
	threshold := mathx.Percentile(benign[0], 99)

	fig := Figure{
		ID:     "mismatch",
		Title:  "Deployment-model mismatch (trained σ=50, FP target 1%, Diff)",
		XLabel: "actual σ'",
		YLabel: "rate",
		Notes:  []string{fmt.Sprintf("trained threshold = %.2f", threshold)},
	}
	fp := plot.Series{Label: "false-positive rate"}
	dr := plot.Series{Label: "detection rate (D=100, x=10%)"}
	for _, sigma := range []float64{30, 40, 45, 50, 55, 60, 70, 80} {
		actualCfg := assumedCfg
		actualCfg.Sigma = sigma
		actual, err := deploy.New(actualCfg)
		if err != nil {
			return Figure{}, err
		}
		// Benign sensors live in the *actual* world; the detector scores
		// them with the *assumed* knowledge.
		fpRate, err := mismatchFPRate(assumed, actual, metric, threshold, opts)
		if err != nil {
			return Figure{}, err
		}
		fp.X = append(fp.X, sigma)
		fp.Y = append(fp.Y, fpRate)

		drRate, err := mismatchDRRate(assumed, actual, metric, threshold, opts)
		if err != nil {
			return Figure{}, err
		}
		dr.X = append(dr.X, sigma)
		dr.Y = append(dr.Y, drRate)
	}
	fig.Series = append(fig.Series, fp, dr)
	return fig, nil
}

func mismatchFPRate(assumed, actual *deploy.Model, metric core.Metric, threshold float64, opts Options) (float64, error) {
	opts, err := opts.normalize()
	if err != nil {
		return 0, err
	}
	r := rng.New(opts.Seed ^ 0x315a)
	hits := 0
	n := opts.BenignTrials
	det := core.NewDetector(assumed, metric, threshold)
	mle := localize.NewBeaconlessModel(assumed)
	for t := 0; t < n; t++ {
		group, la := actual.SampleLocation(r)
		for !actual.Field().Contains(la) {
			group, la = actual.SampleLocation(r)
		}
		// Observation generated by the actual physics…
		o := actual.SampleObservation(la, group, r)
		// …location estimated and checked with the assumed knowledge.
		le, err := mle.LocalizeObservation(o)
		if err != nil {
			continue
		}
		if det.Check(o, le).Alarm {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}

func mismatchDRRate(assumed, actual *deploy.Model, metric core.Metric, threshold float64, opts Options) (float64, error) {
	opts, err := opts.normalize()
	if err != nil {
		return 0, err
	}
	r := rng.New(opts.Seed ^ 0x77aa)
	hits := 0
	n := opts.AttackTrials
	det := core.NewDetector(assumed, metric, threshold)
	for t := 0; t < n; t++ {
		group, la := actual.SampleLocation(r)
		for !actual.Field().Contains(la) {
			group, la = actual.SampleLocation(r)
		}
		a := actual.SampleObservation(la, group, r)
		le := attack.ForgeLocationInField(la, 100, actual.Field(), r, 64)
		e := core.NewExpectation(assumed, le)
		o := StrategyFor(metric, e, attack.DecBounded).Taint(a, attack.Compromised(a, 0.10))
		if det.CheckWithExpectation(o, e).Alarm {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}

// Correction evaluates the location corrector (the paper's "ultimate
// goal"): after a D-anomaly with a Diff-greedy Dec-Bounded attacker
// (x=10%), how much residual location error remains if the sensor
// replaces the forged location with the MLE / trimmed-MLE re-estimate?
func Correction(model *deploy.Model, opts Options) (Figure, error) {
	opts, err := opts.normalize()
	if err != nil {
		return Figure{}, err
	}
	corr := core.NewCorrector(model)
	metric := core.DiffMetric{}
	fig := Figure{
		ID:     "correct",
		Title:  "Residual error after location correction (x=10%, Diff-greedy Dec-Bounded)",
		XLabel: "degree of damage D",
		YLabel: "mean location error (m)",
	}
	forged := plot.Series{Label: "accept forged location"}
	plain := plot.Series{Label: "MLE correction"}
	trimmed := plot.Series{Label: "trimmed-MLE correction"}
	for _, d := range []float64{40, 80, 120, 160, 200} {
		r := rng.New(opts.Seed ^ uint64(d))
		var sumForged, sumPlain, sumTrim float64
		n := 0
		for t := 0; t < opts.AttackTrials; t++ {
			group, la := model.SampleLocation(r)
			for !model.Field().Contains(la) {
				group, la = model.SampleLocation(r)
			}
			a := model.SampleObservation(la, group, r)
			le := attack.ForgeLocationInField(la, d, model.Field(), r, 64)
			e := core.NewExpectation(model, le)
			o := StrategyFor(metric, e, attack.DecBounded).Taint(a, attack.Compromised(a, 0.10))
			pc, err := corr.Correct(o)
			if err != nil {
				continue
			}
			tc, _, err := corr.CorrectTrimmed(o)
			if err != nil {
				continue
			}
			sumForged += le.Dist(la)
			sumPlain += pc.Dist(la)
			sumTrim += tc.Dist(la)
			n++
		}
		if n == 0 {
			continue
		}
		forged.X = append(forged.X, d)
		forged.Y = append(forged.Y, sumForged/float64(n))
		plain.X = append(plain.X, d)
		plain.Y = append(plain.Y, sumPlain/float64(n))
		trimmed.X = append(trimmed.X, d)
		trimmed.Y = append(trimmed.Y, sumTrim/float64(n))
	}
	fig.Series = []plot.Series{forged, plain, trimmed}
	return fig, nil
}

// OmegaSweep quantifies the paper's table-lookup claim ("ω does not need
// to be very large"): per ω, the max interpolation error of the g(z)
// table against the exact Theorem 1 integral, and the table build time.
func OmegaSweep() Figure {
	cfg := deploy.PaperConfig()
	fig := Figure{
		ID:     "omega",
		Title:  "g(z) lookup-table accuracy vs ω (R=50, σ=50)",
		XLabel: "ω (table sub-ranges)",
		YLabel: "max |table − exact|",
	}
	errS := plot.Series{Label: "max abs error"}
	for _, omega := range []int{16, 32, 64, 128, 256, 512, 1024} {
		start := time.Now()
		gt := deploy.NewGTable(cfg.Range, cfg.Sigma, omega)
		build := time.Since(start)
		e := gt.MaxAbsError(4)
		errS.X = append(errS.X, float64(omega))
		errS.Y = append(errS.Y, e)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("omega=%4d  maxErr=%.3g  build=%s", omega, e, build.Round(time.Microsecond)))
	}
	fig.Series = []plot.Series{errS}
	return fig
}
