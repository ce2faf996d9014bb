package experiment

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/localize"
	"repro/internal/mathx"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// SchemeSensitivity is the paper's §7.2 follow-up ("the methodology for
// studying the LAD scheme for other localization schemes is similar, and
// will be pursued in our future work"): LAD's detection threshold is
// retrained per localization scheme — noisier schemes have wider benign
// score distributions, so the threshold inflates and detection of a given
// D-anomaly weakens.
//
// For each scheme the experiment (on a real spatial network):
//  1. localizes a benign node sample, scores the Diff metric at the
//     scheme's estimates, and takes the P99 threshold;
//  2. simulates D-anomalies with the Diff-greedy Dec-Bounded attacker
//     (x = 10%) and reports the detection rate per D.
//
// The output quantifies how much headroom each scheme's intrinsic error
// costs LAD.
func SchemeSensitivity(opts Options) (Figure, error) {
	opts, err := opts.normalize()
	if err != nil {
		return Figure{}, err
	}
	cfg := deploy.PaperConfig()
	// Spatial runs: m=120 keeps the DV-Hop floods affordable while
	// leaving the anomaly signal enough headroom over scheme noise.
	cfg.GroupSize = 120
	model, err := deploy.New(cfg)
	if err != nil {
		return Figure{}, err
	}
	master := rng.New(opts.Seed ^ 0x5c4e3e)
	net := wsn.Deploy(model, master.Split())
	beacons := localize.SelectBeacons(net, 25, 250, master.Split())
	density := net.AverageDegree(200, master.Split())

	schemes := []localize.Scheme{
		localize.NewBeaconless(net),
		localize.NewMMSE(beacons, localize.GaussianRanger(8, master.Split())),
		localize.NewMinMax(beacons, localize.GaussianRanger(8, master.Split())),
		localize.NewDVHop(net, beacons),
		localize.NewAmorphous(net, beacons, density),
	}

	metric := core.DiffMetric{}
	fig := Figure{
		ID:     "schemes",
		Title:  "LAD detection rate per localization scheme (FP=1%, Diff, Dec-Bounded, x=10%)",
		XLabel: "degree of damage D",
		YLabel: "detection rate",
	}
	ds := []float64{40, 80, 120, 160}

	for _, scheme := range schemes {
		// Benign pass: the scheme's own estimates set the threshold.
		r := master.Split()
		var benignScores []float64
		var errSum float64
		benignTarget := opts.BenignTrials / 4
		if benignTarget < 100 {
			benignTarget = 100
		}
		for tries := 0; len(benignScores) < benignTarget && tries < 50*benignTarget; tries++ {
			id, _ := net.SampleNode(r)
			node := net.Node(id)
			if node.IsBeacon || !model.Field().Contains(node.Pos) {
				continue
			}
			le, err := scheme.Localize(id)
			if err != nil || !model.Field().Contains(le) {
				continue
			}
			o := net.ObservationOf(id)
			benignScores = append(benignScores,
				metric.Score(o, core.NewExpectation(model, le)))
			errSum += le.Dist(node.Pos)
		}
		if len(benignScores) < benignTarget/2 {
			return Figure{}, fmt.Errorf("experiment: scheme %s localized too few nodes", scheme.Name())
		}
		threshold := mathx.Percentile(benignScores, 99)
		meanErr := errSum / float64(len(benignScores))
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%-18s mean loc error %6.1f m, P99 threshold %7.2f", scheme.Name(), meanErr, threshold))

		// Attack pass: D-anomalies with the metric-matched greedy taint.
		s := plot.Series{Label: scheme.Name()}
		for _, d := range ds {
			ar := master.Split()
			detected, trials := 0, 0
			a := make([]int, model.NumGroups())
			for t := 0; t < opts.AttackTrials/2; t++ {
				group, la := model.SampleLocation(ar)
				for !model.Field().Contains(la) {
					group, la = model.SampleLocation(ar)
				}
				model.SampleObservationInto(a, la, group, ar)
				le := attack.ForgeLocationInField(la, d, model.Field(), ar, 64)
				e := core.NewExpectation(model, le)
				o := attack.NewDiffMinimizer(e.Mu, attack.DecBounded).
					Taint(a, compromised(a, 0.10))
				trials++
				if metric.Score(o, e) > threshold {
					detected++
				}
			}
			s.X = append(s.X, d)
			s.Y = append(s.Y, float64(detected)/float64(trials))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// LayoutAblation exercises the §3.1 extension claim ("the scheme we
// developed for grid-based deployment can be easily extended to other
// deployment strategies, such as … hexagon shapes, or … random"): the
// full analytic pipeline runs unchanged over all three layouts, and the
// figure compares detection rate vs D at FP = 1%.
func LayoutAblation(opts Options) (Figure, error) {
	metric := core.DiffMetric{}
	fig := Figure{
		ID:     "layouts",
		Title:  "Deployment-layout ablation (FP=1%, Diff, Dec-Bounded, x=10%)",
		XLabel: "degree of damage D",
		YLabel: "detection rate",
	}
	ds := []float64{40, 60, 80, 100, 120, 140, 160}
	for _, layout := range []deploy.Layout{deploy.LayoutGrid, deploy.LayoutHex, deploy.LayoutRandom} {
		cfg := deploy.PaperConfig()
		cfg.Layout = layout
		cfg.RandomSeed = 7
		model, err := deploy.New(cfg)
		if err != nil {
			return Figure{}, err
		}
		benign, err := Benign(model, []core.Metric{metric}, opts)
		if err != nil {
			return Figure{}, err
		}
		threshold := mathx.Percentile(benign[0], 99)
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%-6s layout: P99 threshold %.2f", layout, threshold))
		s := plot.Series{Label: layout.String()}
		for _, d := range ds {
			attacked, err := AttackScores(model, metric,
				AttackPoint{D: d, XFrac: 0.10, Class: attack.DecBounded}, opts)
			if err != nil {
				return Figure{}, err
			}
			s.X = append(s.X, d)
			s.Y = append(s.Y, DetectionRate(attacked, threshold))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
