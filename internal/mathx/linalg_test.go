package mathx

import (
	"math"
	"testing"
)

func TestLeastSquares2ExactFit(t *testing.T) {
	// Points generated by x=2, y=-1 exactly.
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, -1}}
	b := make([]float64, len(a))
	for i, row := range a {
		b[i] = row[0]*2 + row[1]*(-1)
	}
	x, y, err := LeastSquares2(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2) > 1e-10 || math.Abs(y+1) > 1e-10 {
		t.Errorf("(x,y) = (%v,%v), want (2,-1)", x, y)
	}
}

func TestLeastSquares2Overdetermined(t *testing.T) {
	// Noisy fit must satisfy the normal equations: residual orthogonal to columns.
	a := [][]float64{{1, 0}, {0, 1}, {1, 1}, {1, -1}, {2, 3}}
	b := []float64{1.1, -0.9, 0.2, 1.9, -0.5}
	x, y, err := LeastSquares2(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var d0, d1 float64
	for i, row := range a {
		r := b[i] - row[0]*x - row[1]*y
		d0 += r * row[0]
		d1 += r * row[1]
	}
	if math.Abs(d0) > 1e-9 || math.Abs(d1) > 1e-9 {
		t.Errorf("normal equations violated: %v, %v", d0, d1)
	}
}

func TestLeastSquares2Errors(t *testing.T) {
	if _, _, err := LeastSquares2([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("single equation should fail")
	}
	if _, _, err := LeastSquares2([][]float64{{1, 2, 3}, {1, 2, 3}}, []float64{1, 2}); err == nil {
		t.Error("wrong row width should fail")
	}
	// Rank deficient: all rows parallel.
	if _, _, err := LeastSquares2([][]float64{{1, 1}, {2, 2}, {3, 3}}, []float64{1, 2, 3}); err != ErrSingular {
		t.Error("rank-deficient system should return ErrSingular")
	}
}
