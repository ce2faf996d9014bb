package mathx

import "errors"

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// LeastSquares2 solves the overdetermined system A·x = b for x ∈ R² in
// the least-squares sense via the normal equations AᵀA·x = Aᵀb. Each row
// of a must have exactly two entries. This is the MMSE step shared by the
// DV-Hop and Amorphous localization baselines.
func LeastSquares2(a [][]float64, b []float64) (x, y float64, err error) {
	if len(a) < 2 || len(a) != len(b) {
		return 0, 0, errors.New("mathx: LeastSquares2 needs >= 2 equations")
	}
	var s00, s01, s11, t0, t1 float64
	for i, row := range a {
		if len(row) != 2 {
			return 0, 0, errors.New("mathx: LeastSquares2 rows must have 2 columns")
		}
		s00 += row[0] * row[0]
		s01 += row[0] * row[1]
		s11 += row[1] * row[1]
		t0 += row[0] * b[i]
		t1 += row[1] * b[i]
	}
	det := s00*s11 - s01*s01
	if abs(det) < 1e-12 {
		return 0, 0, ErrSingular
	}
	x = (s11*t0 - s01*t1) / det
	y = (s00*t1 - s01*t0) / det
	return x, y, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
