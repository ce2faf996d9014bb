package lad

// Benchmark harness: one testing.B benchmark per figure of the paper's
// evaluation (the paper has no tables — Figures 4–9 carry all its
// quantitative results) plus extension experiments and micro-benchmarks
// of the hot primitives. Each figure bench runs the full Monte-Carlo
// reproduction at reduced-but-meaningful fidelity and reports headline
// numbers as custom metrics, so `go test -bench=.` regenerates the
// paper's result shapes in one command.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/stats"
)

// benchOpts trades fidelity for bench runtime; the shapes survive.
func benchOpts() experiment.Options {
	return experiment.Options{BenignTrials: 600, AttackTrials: 400, Seed: 20050425}
}

func benchModel(b *testing.B) *deploy.Model {
	b.Helper()
	m, err := deploy.New(deploy.PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure4 regenerates the per-metric ROC panels (DR-FP-M-D):
// x=10%, m=300, Dec-Bounded, D ∈ {80,120,160}. Reported metrics are the
// AUCs of the three detection metrics at D=120.
func BenchmarkFigure4(b *testing.B) {
	model := benchModel(b)
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Figure4(model, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) != 3 {
			b.Fatalf("panels = %d", len(figs))
		}
		if i == 0 {
			// Panel 1 is D=120; series order diff, add-all, probability.
			mid := figs[1]
			for si, name := range []string{"diff", "addall", "prob"} {
				auc := stats.AUC(toROC(mid.Series[si].X, mid.Series[si].Y))
				b.ReportMetric(auc, "AUC_D120_"+name)
			}
		}
	}
}

// BenchmarkFigure5 regenerates the Dec-Bounded vs Dec-Only ROC panels at
// low damage (D ∈ {40,80}, Diff metric).
func BenchmarkFigure5(b *testing.B) {
	benchFigure56(b, "fig5")
}

// BenchmarkFigure6 regenerates the Dec-Bounded vs Dec-Only ROC panels at
// high damage (D ∈ {120,160}, Diff metric).
func BenchmarkFigure6(b *testing.B) {
	benchFigure56(b, "fig6")
}

func benchFigure56(b *testing.B, id string) {
	model := benchModel(b)
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Figure56(model, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, f := range figs {
				if f.ID != id {
					continue
				}
				for si, class := range []string{"decbounded", "deconly"} {
					auc := stats.AUC(toROC(f.Series[si].X, f.Series[si].Y))
					b.ReportMetric(auc, "AUC_"+class)
				}
			}
		}
	}
}

// BenchmarkFigure7 regenerates detection rate vs degree of damage
// (FP=1%, m=300, Diff, Dec-Bounded; x ∈ {10,20,30}%). Reported metrics:
// DR at D=160 for each compromise level.
func BenchmarkFigure7(b *testing.B) {
	model := benchModel(b)
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure7(model, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range fig.Series {
				b.ReportMetric(s.Y[len(s.Y)-1], "DR_D160_"+s.Label)
			}
		}
	}
}

// BenchmarkFigure8 regenerates detection rate vs compromised-node share
// (FP=1%, m=300, Diff, Dec-Bounded; D ∈ {80,120,160}). Reported metrics:
// DR at x=50% per damage level.
func BenchmarkFigure8(b *testing.B) {
	model := benchModel(b)
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Figure8(model, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range fig.Series {
				// x grid: index 7 is 50%.
				b.ReportMetric(s.Y[7], "DR_x50_"+s.Label)
			}
		}
	}
}

// BenchmarkFigure9 regenerates detection rate vs network density
// (FP=1%, Diff, Dec-Bounded; panels D ∈ {80,100,160}, x ∈ {10,20,30}%).
// Reported metrics: DR at m=1000, x=10% per damage panel.
func BenchmarkFigure9(b *testing.B) {
	model := benchModel(b)
	opts := benchOpts()
	opts.BenignTrials = 300 // retrained per density; keep the sweep tractable
	opts.AttackTrials = 200
	for i := 0; i < b.N; i++ {
		figs, err := experiment.Figure9(model, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			dLabels := []string{"D80", "D100", "D160"}
			for fi, f := range figs {
				s := f.Series[0] // x=10%
				b.ReportMetric(s.Y[len(s.Y)-1], "DR_m1000_"+dLabels[fi])
			}
		}
	}
}

// BenchmarkModelMismatch regenerates the deployment-model mismatch
// extension (the paper's stated future work).
func BenchmarkModelMismatch(b *testing.B) {
	opts := benchOpts()
	opts.BenignTrials = 300
	opts.AttackTrials = 200
	for i := 0; i < b.N; i++ {
		fig, err := experiment.ModelMismatch(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// FP at σ'=80 (last point of series 0).
			fp := fig.Series[0]
			b.ReportMetric(fp.Y[len(fp.Y)-1], "FP_sigma80")
		}
	}
}

// BenchmarkCorrection regenerates the location-correction extension.
func BenchmarkCorrection(b *testing.B) {
	model := benchModel(b)
	opts := benchOpts()
	opts.AttackTrials = 120
	for i := 0; i < b.N; i++ {
		fig, err := experiment.Correction(model, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			forged := fig.Series[0]
			plain := fig.Series[1]
			b.ReportMetric(forged.Y[len(forged.Y)-1], "err_forged_D200")
			b.ReportMetric(plain.Y[len(plain.Y)-1], "err_mle_D200")
		}
	}
}

// BenchmarkGTableOmega regenerates the ω-sweep ablation (Section 3.3's
// lookup-table accuracy claim).
func BenchmarkGTableOmega(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.OmegaSweep()
		if i == 0 {
			s := fig.Series[0]
			b.ReportMetric(s.Y[len(s.Y)-1], "maxErr_omega1024")
		}
	}
}

// --- micro-benchmarks of the hot primitives ---

// BenchmarkMetricScores measures one scoring pass of each metric.
func BenchmarkMetricScores(b *testing.B) {
	model := benchModel(b)
	r := rng.New(2)
	_, la := model.SampleLocation(r)
	o := model.SampleObservation(la, -1, r)
	e := core.NewExpectation(model, la)
	for _, m := range core.AllMetrics() {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Score(o, e)
			}
		})
	}
}

// BenchmarkExpectation measures µ/g evaluation at a candidate location.
func BenchmarkExpectation(b *testing.B) {
	model := benchModel(b)
	r := rng.New(4)
	_, la := model.SampleLocation(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewExpectation(model, la)
	}
}

// toROC rebuilds stats.ROCPoints from plotted (FP, DR) pairs.
func toROC(x, y []float64) []stats.ROCPoint {
	pts := make([]stats.ROCPoint, len(x))
	for i := range x {
		pts[i] = stats.ROCPoint{FP: x[i], DR: y[i]}
	}
	return pts
}
