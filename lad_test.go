package lad

import (
	"math"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/plot"
)

func TestPublicQuickstartFlow(t *testing.T) {
	model, err := NewModel(PaperDeployment())
	if err != nil {
		t.Fatal(err)
	}
	det, benign, err := Train(model, Diff(), TrainConfig{
		Trials: 400, Percentile: 99, Seed: 1, KeepInField: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(benign) != 400 {
		t.Fatalf("benign scores = %d", len(benign))
	}

	// A synthetic honest sensor near the field center.
	net := DeployNetwork(model, 2)
	mle := NewBeaconless(model)
	var id NodeID
	for i := 0; i < net.Len(); i++ {
		if net.Node(NodeID(i)).Pos.Dist(Pt(500, 500)) < 50 {
			id = NodeID(i)
			break
		}
	}
	o := net.ObservationOf(id)
	le, err := mle.LocalizeObservation(o)
	if err != nil {
		t.Fatal(err)
	}
	if v := det.Check(o, le); v.Alarm {
		t.Errorf("honest sensor alarmed: %v", v)
	}
	// Forged far-away location must alarm.
	forged := net.Node(id).Pos.Add(Pt(400, 0).Sub(Pt(0, 0)))
	if v := det.Check(o, forged); !v.Alarm {
		t.Errorf("forged location not alarmed: %v", v)
	}
}

func TestMetricsAccessors(t *testing.T) {
	if Diff().Name() != "diff" || AddAll().Name() != "add-all" || Probability().Name() != "probability" {
		t.Error("metric names wrong")
	}
	if len(Metrics()) != 3 {
		t.Error("Metrics() should return 3")
	}
	if DecBounded.String() != "dec-bounded" || DecOnly.String() != "dec-only" {
		t.Error("attack class aliases wrong")
	}
}

func TestNewExpectationAndCorrector(t *testing.T) {
	model, _ := NewModel(PaperDeployment())
	e := NewExpectation(model, Pt(500, 500))
	if len(e.Mu) != 100 {
		t.Fatal("expectation shape wrong")
	}
	c := NewCorrector(model)
	if c == nil {
		t.Fatal("nil corrector")
	}
	d := NewDetector(model, Diff(), 42)
	if d.Threshold() != 42 {
		t.Error("explicit threshold lost")
	}
}

func TestFigureNamesAndUnknown(t *testing.T) {
	names := FigureNames()
	if len(names) != 11 {
		t.Fatalf("names = %v", names)
	}
	// Every listed name must actually dispatch (spot-check via unknown
	// detection: RunFigure returns a "valid:" list containing each).
	for _, n := range names {
		if n == "" {
			t.Fatal("empty figure name")
		}
	}
	if _, err := RunFigure("nope", QuickFigureOptions()); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestRunFigureOmegaAndRender(t *testing.T) {
	figs, err := RunFigure("omega", QuickFigureOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 {
		t.Fatalf("panels = %d", len(figs))
	}
	out := RenderFigure(figs[0], 60, 12)
	for _, want := range []string{"omega", "max abs error", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	csv := FigureCSV(figs[0])
	if !strings.HasPrefix(csv, "series,x,y\n") || len(strings.Split(csv, "\n")) < 5 {
		t.Errorf("csv = %q", csv)
	}
}

func TestRunFigure7Smoke(t *testing.T) {
	opts := FigureOptions{BenignTrials: 250, AttackTrials: 150, Seed: 3}
	figs, err := RunFigure("fig7", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Series) != 3 {
		t.Fatalf("fig7 shape wrong: %d panels", len(figs))
	}
	// DR at D=160, x=10% must be near 1 even at smoke fidelity.
	s := figs[0].Series[0]
	if last := s.Y[len(s.Y)-1]; last < 0.85 {
		t.Errorf("fig7 x=10%% D=160 DR = %v", last)
	}
}

func TestQuickOptionsSane(t *testing.T) {
	q := QuickFigureOptions()
	d := DefaultFigureOptions()
	if q.BenignTrials >= d.BenignTrials || q.AttackTrials >= d.AttackTrials {
		t.Error("quick options should be smaller than defaults")
	}
	if q.Seed != d.Seed {
		t.Error("seeds should match for comparability")
	}
}

func TestSeriesValueAtInterpolation(t *testing.T) {
	s := plot.Series{Label: "s", X: []float64{0, 1}, Y: []float64{0, 1}}
	if got := seriesValueAt(s, -1); got != 0 {
		t.Errorf("left clamp = %v", got)
	}
	if got := seriesValueAt(s, 10); got != 1 {
		t.Errorf("right clamp = %v", got)
	}
	if got := seriesValueAt(s, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("midpoint = %v", got)
	}
	empty := seriesValueAt(plot.Series{}, 1)
	if !math.IsNaN(empty) {
		t.Errorf("empty series = %v, want NaN", empty)
	}
}

func TestAttackStrategyThroughPublicAlias(t *testing.T) {
	model, _ := NewModel(PaperDeployment())
	e := NewExpectation(model, Pt(500, 500))
	var s AttackStrategy = attack.NewDiffMinimizer(e.Mu, DecBounded)
	o := s.Taint(make([]int, 100), 0)
	if len(o) != 100 {
		t.Fatal("taint shape wrong")
	}
}

func TestRunFigureLayoutsQuick(t *testing.T) {
	opts := FigureOptions{BenignTrials: 200, AttackTrials: 120, Seed: 4}
	figs, err := RunFigure("layouts", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Series) != 3 {
		t.Fatalf("layouts shape wrong")
	}
	out := RenderFigure(figs[0], 60, 12)
	for _, want := range []string{"grid", "hex", "random"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunFigure5And8Quick(t *testing.T) {
	opts := FigureOptions{BenignTrials: 200, AttackTrials: 120, Seed: 5}
	figs, err := RunFigure("fig5", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig5 panels = %d, want 2", len(figs))
	}
	for _, f := range figs {
		if f.ID != "fig5" {
			t.Errorf("panel id = %q", f.ID)
		}
	}
	figs8, err := RunFigure("fig8", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Dense ROC tables downsample to at most 12 rows + header + separator.
	out := RenderFigure(figs[0], 50, 10)
	lines := strings.Split(out, "\n")
	tableRows := 0
	inTable := false
	for _, l := range lines {
		if strings.HasPrefix(l, "---") || strings.Contains(l, "----  ") {
			inTable = true
			continue
		}
		if inTable {
			if strings.TrimSpace(l) == "" || strings.HasPrefix(l, "note:") {
				break
			}
			tableRows++
		}
	}
	if tableRows > 12 {
		t.Errorf("ROC table not downsampled: %d rows", tableRows)
	}
	if len(figs8) != 1 {
		t.Fatalf("fig8 panels = %d", len(figs8))
	}
}
