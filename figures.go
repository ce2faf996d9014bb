package lad

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/deploy"
	"repro/internal/experiment"
	"repro/internal/plot"
)

// FigureOptions tune the Monte-Carlo fidelity of figure reproduction.
type FigureOptions = experiment.Options

// Figure is one reproduced panel of the paper's evaluation.
type Figure = experiment.Figure

// DefaultFigureOptions are the full-fidelity trial counts (4000 benign
// trials per configuration, 1500 attacked trials per point), with
// benign trials on simulation epoch 2; see experiment.DefaultOptions.
func DefaultFigureOptions() FigureOptions { return experiment.DefaultOptions() }

// QuickFigureOptions trade fidelity for speed (smoke tests, benches).
func QuickFigureOptions() FigureOptions {
	return FigureOptions{BenignTrials: 500, AttackTrials: 300, Seed: 20050425}
}

// FigureNames lists the reproducible experiment ids in presentation
// order: the paper's Figures 4–9 plus this repo's extension experiments.
func FigureNames() []string {
	return []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"mismatch", "correct", "omega", "schemes", "layouts"}
}

// RunFigure reproduces one experiment by id and returns its panels.
// Unknown ids return an error listing the valid names.
func RunFigure(id string, opts FigureOptions) ([]Figure, error) {
	model, err := deploy.New(deploy.PaperConfig())
	if err != nil {
		return nil, err
	}
	switch id {
	case "fig4":
		return experiment.Figure4(model, opts)
	case "fig5", "fig6":
		figs, err := experiment.Figure56(model, opts)
		if err != nil {
			return nil, err
		}
		var out []Figure
		for _, f := range figs {
			if f.ID == id {
				out = append(out, f)
			}
		}
		return out, nil
	case "fig7":
		f, err := experiment.Figure7(model, opts)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	case "fig8":
		f, err := experiment.Figure8(model, opts)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	case "fig9":
		return experiment.Figure9(model, opts)
	case "mismatch":
		f, err := experiment.ModelMismatch(opts)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	case "correct":
		f, err := experiment.Correction(model, opts)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	case "omega":
		return []Figure{experiment.OmegaSweep()}, nil
	case "schemes":
		f, err := experiment.SchemeSensitivity(opts)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	case "layouts":
		f, err := experiment.LayoutAblation(opts)
		if err != nil {
			return nil, err
		}
		return []Figure{f}, nil
	default:
		return nil, fmt.Errorf("lad: unknown figure %q (valid: %s)",
			id, strings.Join(FigureNames(), ", "))
	}
}

// RenderFigure produces the terminal representation of a figure: ASCII
// chart, sampled data table, and notes.
func RenderFigure(f Figure, width, height int) string {
	var b strings.Builder
	b.WriteString(f.Chart().Render(width, height))
	b.WriteByte('\n')
	b.WriteString(figureTable(f))
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// FigureCSV renders a figure's series as CSV.
func FigureCSV(f Figure) string { return plot.CSV(f.Series) }

// figureTable prints the series side by side on the union of X values,
// downsampling dense curves (ROCs) to at most 12 rows.
func figureTable(f Figure) string {
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	if len(sorted) > 12 {
		step := float64(len(sorted)-1) / 11
		ds := make([]float64, 0, 12)
		for i := 0; i < 12; i++ {
			ds = append(ds, sorted[int(float64(i)*step+0.5)])
		}
		sorted = ds
	}
	header := append([]string{f.XLabel}, func() []string {
		var h []string
		for _, s := range f.Series {
			h = append(h, s.Label)
		}
		return h
	}()...)
	var rows [][]string
	for _, x := range sorted {
		row := []string{plot.FormatFloat(x)}
		for _, s := range f.Series {
			row = append(row, plot.FormatFloat(seriesValueAt(s, x)))
		}
		rows = append(rows, row)
	}
	return plot.Table(header, rows)
}

// seriesValueAt returns the series value at x, interpolating between the
// nearest samples (series are sorted by construction).
func seriesValueAt(s plot.Series, x float64) float64 {
	if len(s.X) == 0 {
		return math.NaN()
	}
	if x <= s.X[0] {
		return s.Y[0]
	}
	for i := 1; i < len(s.X); i++ {
		if s.X[i] >= x {
			lo, hi := s.X[i-1], s.X[i]
			if hi == lo {
				return s.Y[i]
			}
			w := (x - lo) / (hi - lo)
			return s.Y[i-1]*(1-w) + s.Y[i]*w
		}
	}
	return s.Y[len(s.Y)-1]
}
