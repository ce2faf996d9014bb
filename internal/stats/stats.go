// Package stats provides descriptive statistics, hypothesis tests, and
// the ROC machinery used to evaluate the LAD detector: the paper's
// figures are ROC curves (detection rate vs false-positive rate, Figures
// 4–6) and fixed-false-positive detection-rate sweeps (Figures 7–9).
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n−1 denominator)
	Std      float64
	Min, Max float64
}

// Summarize computes a Summary of xs. A zero-length sample returns the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Variance)
	}
	return s
}

// ROCPoint is one operating point of a detector.
type ROCPoint struct {
	Threshold float64
	FP        float64 // false-positive rate: P(score > threshold | benign)
	DR        float64 // detection rate:      P(score > threshold | attacked)
}

// ROC computes the full receiver-operating-characteristic curve for a
// score-based detector where larger scores are more anomalous. benign and
// attacked are the scores observed on clean and attacked trials. The
// returned points are ordered by increasing FP and always include the
// (0,·) and (1,1) endpoints induced by thresholds above the max and below
// the min score.
func ROC(benign, attacked []float64) []ROCPoint {
	if len(benign) == 0 || len(attacked) == 0 {
		return nil
	}
	b := append([]float64(nil), benign...)
	a := append([]float64(nil), attacked...)
	sort.Float64s(b)
	sort.Float64s(a)

	// Candidate thresholds: every distinct benign score (plus sentinels).
	// FP(t) = fraction of benign > t; DR(t) = fraction of attacked > t.
	frac := func(sorted []float64, t float64) float64 {
		i := sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1)))
		return float64(len(sorted)-i) / float64(len(sorted))
	}

	thresholds := make([]float64, 0, len(b)+2)
	thresholds = append(thresholds, math.Inf(1))
	for i := len(b) - 1; i >= 0; i-- {
		if len(thresholds) == 1 || b[i] != thresholds[len(thresholds)-1] {
			thresholds = append(thresholds, b[i])
		}
	}
	thresholds = append(thresholds, math.Inf(-1))

	pts := make([]ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		pts = append(pts, ROCPoint{Threshold: t, FP: frac(b, t), DR: frac(a, t)})
	}
	return pts
}

// AUC returns the area under the ROC curve by trapezoidal integration.
func AUC(pts []ROCPoint) float64 {
	var area float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].FP - pts[i-1].FP
		area += dx * (pts[i].DR + pts[i-1].DR) / 2
	}
	return area
}
