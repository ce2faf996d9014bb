package mathx

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// LinearTable is a piecewise-linear interpolation table over uniformly
// spaced abscissae. It is the data structure the paper prescribes for
// g(z): "divide the range of z into ω equal-size sub-ranges, and store the
// g(z) values for these ω+1 dividing points into a table", with constant
// time lookups.
type LinearTable struct {
	x0, x1 float64   // domain
	step   float64   // (x1-x0)/ω
	ys     []float64 // ω+1 samples
}

// NewLinearTable samples f at omega+1 uniformly spaced points on
// [x0, x1] and returns the lookup table. omega must be >= 1 and x1 > x0.
func NewLinearTable(f Func1, x0, x1 float64, omega int) (*LinearTable, error) {
	return NewLinearTableProcs(f, x0, x1, omega, 1)
}

// NewLinearTableProcs is NewLinearTable with the samples computed over
// at most procs goroutines (the caller's among them), for an f that is
// safe to call concurrently. Each sample is f at the same abscissa the
// serial build uses, so a deterministic f gives a bit-identical table.
func NewLinearTableProcs(f Func1, x0, x1 float64, omega, procs int) (*LinearTable, error) {
	if omega < 1 {
		return nil, errors.New("mathx: LinearTable needs omega >= 1")
	}
	if !(x1 > x0) {
		return nil, errors.New("mathx: LinearTable needs x1 > x0")
	}
	ys := make([]float64, omega+1)
	step := (x1 - x0) / float64(omega)
	procs = min(max(procs, 1), len(ys))
	// Strided, not blocked: a sample's cost varies smoothly with x, so
	// every goroutine gets a share of the expensive ones.
	sample := func(first int) {
		for i := first; i < len(ys); i += procs {
			ys[i] = f(x0 + float64(i)*step)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sample(w)
		}()
	}
	sample(0)
	wg.Wait()
	return &LinearTable{x0: x0, x1: x1, step: step, ys: ys}, nil
}

// Eval returns the interpolated value at x. Outside the domain the table
// clamps to the boundary values (g(z) tables set the right edge to 0, so
// clamping matches the physics).
func (t *LinearTable) Eval(x float64) float64 {
	if x <= t.x0 {
		return t.ys[0]
	}
	if x >= t.x1 {
		return t.ys[len(t.ys)-1]
	}
	u := (x - t.x0) / t.step
	i := int(u)
	if i >= len(t.ys)-1 { // guard against float rounding at the right edge
		i = len(t.ys) - 2
	}
	frac := u - float64(i)
	return t.ys[i]*(1-frac) + t.ys[i+1]*frac
}

// Omega returns the number of sub-ranges in the table.
func (t *LinearTable) Omega() int { return len(t.ys) - 1 }

// MaxAbsError measures the worst interpolation error of the table against
// f, probing k points per sub-range.
func (t *LinearTable) MaxAbsError(f Func1, k int) float64 {
	if k < 1 {
		k = 1
	}
	var worst float64
	for i := 0; i < len(t.ys)-1; i++ {
		for j := 0; j <= k; j++ {
			x := t.x0 + (float64(i)+float64(j)/float64(k+1))*t.step
			if e := math.Abs(t.Eval(x) - f(x)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// String implements fmt.Stringer.
func (t *LinearTable) String() string {
	return fmt.Sprintf("LinearTable[%.3g, %.3g] omega=%d", t.x0, t.x1, t.Omega())
}

// Percentile returns the q-th percentile (q in [0, 100]) of xs using
// linear interpolation between order statistics (the "linear" definition,
// type 7 in the Hyndman–Fan taxonomy). It copies and sorts its input.
// It panics on an empty slice and on q outside [0, 100] (including NaN):
// an out-of-range τ is a caller bug — silently clamping it would turn a
// misconfigured false-positive target into a plausible-looking threshold.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Percentile of empty slice")
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return PercentileSorted(cp, q)
}

// PercentileSorted is Percentile for an already ascending-sorted slice,
// without copying.
func PercentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("mathx: PercentileSorted of empty slice")
	}
	if !(q >= 0 && q <= 100) { // also catches NaN
		panic(fmt.Sprintf("mathx: percentile q = %v outside [0, 100]", q))
	}
	pos := q / 100 * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
