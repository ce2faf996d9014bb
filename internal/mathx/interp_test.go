package mathx

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewLinearTableValidation(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := NewLinearTable(f, 0, 1, 0); err == nil {
		t.Error("omega=0 should fail")
	}
	if _, err := NewLinearTable(f, 1, 1, 4); err == nil {
		t.Error("empty domain should fail")
	}
	if _, err := NewLinearTable(f, 2, 1, 4); err == nil {
		t.Error("inverted domain should fail")
	}
}

func TestLinearTableExactOnLinear(t *testing.T) {
	f := func(x float64) float64 { return 3*x - 7 }
	tb, err := NewLinearTable(f, -5, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for x := -5.0; x <= 5; x += 0.37 {
		if got := tb.Eval(x); math.Abs(got-f(x)) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, f(x))
		}
	}
}

func TestLinearTableClampsOutside(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	tb, _ := NewLinearTable(f, 0, 10, 20)
	if got := tb.Eval(-5); got != f(0) {
		t.Errorf("left clamp = %v, want %v", got, f(0))
	}
	if got := tb.Eval(15); got != f(10) {
		t.Errorf("right clamp = %v, want %v", got, f(10))
	}
}

func TestLinearTableErrorShrinksWithOmega(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(x) }
	var prev float64 = math.Inf(1)
	for _, omega := range []int{4, 16, 64, 256} {
		tb, err := NewLinearTable(f, 0, 2*math.Pi, omega)
		if err != nil {
			t.Fatal(err)
		}
		e := tb.MaxAbsError(f, 7)
		if e > prev {
			t.Errorf("error grew with omega=%d: %v > %v", omega, e, prev)
		}
		prev = e
	}
	if prev > 1e-3 {
		t.Errorf("omega=256 error too large: %v", prev)
	}
}

func TestLinearTableAccessors(t *testing.T) {
	tb, _ := NewLinearTable(func(x float64) float64 { return x }, 0, 1, 8)
	if tb.Omega() != 8 {
		t.Errorf("Omega = %d", tb.Omega())
	}
	if !strings.Contains(tb.String(), "omega=8") {
		t.Errorf("String = %q", tb.String())
	}
}

func TestLinearTableEvalWithinHullProperty(t *testing.T) {
	// Interpolated values stay within [min, max] of the samples.
	f0 := func(x float64) float64 { return math.Sin(3 * x) }
	const omega = 37
	tb, _ := NewLinearTable(f0, 0, 4, omega)
	lo, hi := f0(0), f0(0)
	for i := 1; i <= omega; i++ {
		v := f0(float64(i) * (4.0 / omega)) // the table's i-th sample
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 4)
		v := tb.Eval(x)
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %v", got)
	}
	// Input must be unchanged.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
	// Single element.
	if got := Percentile([]float64{7}, 63); got != 7 {
		t.Errorf("singleton percentile = %v", got)
	}
	// Out-of-range and NaN q are caller bugs and must fail loudly
	// instead of clamping to a plausible-looking threshold.
	for _, q := range []float64{-1, 100.5, math.NaN()} {
		q := q
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(xs, %v) should panic", q)
				}
			}()
			Percentile(xs, q)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("empty Percentile should panic")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentileMonotoneProperty(t *testing.T) {
	xs := []float64{5, 3, 9, 1, 7, 2, 8}
	f := func(q1, q2 float64) bool {
		q1 = math.Abs(math.Mod(q1, 100))
		q2 = math.Abs(math.Mod(q2, 100))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Percentile(xs, q1) <= Percentile(xs, q2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
