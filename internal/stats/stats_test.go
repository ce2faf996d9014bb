package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Unbiased variance of this classic sample is 32/7.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Variance, 32.0/7)
	}
	if math.Abs(s.Std-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
	one := Summarize([]float64{3})
	if one.Variance != 0 || one.Std != 0 || one.Mean != 3 {
		t.Errorf("singleton summary = %+v", one)
	}
}

func TestROCPerfectSeparation(t *testing.T) {
	benign := []float64{1, 2, 3}
	attacked := []float64{10, 11, 12}
	pts := ROC(benign, attacked)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	// Some threshold already reaches DR=1 at FP=0.
	best := 0.0
	for _, p := range pts {
		if p.FP == 0 {
			best = math.Max(best, p.DR)
		}
	}
	if best != 1 {
		t.Errorf("DR at FP=0 = %v, want 1", best)
	}
	if auc := AUC(pts); math.Abs(auc-1) > 1e-12 {
		t.Errorf("AUC = %v, want 1", auc)
	}
}

func TestROCRandomScores(t *testing.T) {
	// Identical distributions: AUC ≈ 0.5, DR ≈ FP along the curve.
	benign := make([]float64, 0, 1000)
	attacked := make([]float64, 0, 1000)
	x := 0.0
	for i := 0; i < 1000; i++ {
		x = math.Mod(x+0.754877666, 1) // low-discrepancy fill of [0,1)
		benign = append(benign, x)
		attacked = append(attacked, math.Mod(x+0.5, 1))
	}
	pts := ROC(benign, attacked)
	if auc := AUC(pts); math.Abs(auc-0.5) > 0.05 {
		t.Errorf("AUC = %v, want ~0.5", auc)
	}
}

func TestROCEndpointsAndMonotonicity(t *testing.T) {
	benign := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	attacked := []float64{2, 7, 1, 8, 2, 8}
	pts := ROC(benign, attacked)
	if pts[0].FP != 0 {
		t.Errorf("first FP = %v, want 0", pts[0].FP)
	}
	last := pts[len(pts)-1]
	if last.FP != 1 || last.DR != 1 {
		t.Errorf("last point = %+v, want (1,1)", last)
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].FP < pts[j].FP }) {
		t.Error("FP not non-decreasing")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DR < pts[i-1].DR-1e-12 {
			t.Error("DR not non-decreasing along the curve")
		}
	}
}

func TestROCEmptyInputs(t *testing.T) {
	if pts := ROC(nil, []float64{1}); pts != nil {
		t.Error("empty benign should yield nil")
	}
	if pts := ROC([]float64{1}, nil); pts != nil {
		t.Error("empty attacked should yield nil")
	}
}

func TestAUCBoundsProperty(t *testing.T) {
	f := func(seedB, seedA uint8) bool {
		benign := make([]float64, 0, 50)
		attacked := make([]float64, 0, 50)
		x := float64(seedB) / 256
		y := float64(seedA) / 256
		for i := 0; i < 50; i++ {
			x = math.Mod(x*1.61803+0.1, 1)
			y = math.Mod(y*1.32471+0.2, 1)
			benign = append(benign, x)
			attacked = append(attacked, y+0.1) // slight shift
		}
		auc := AUC(ROC(benign, attacked))
		return auc >= -1e-9 && auc <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
