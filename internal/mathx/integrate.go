// Package mathx supplies the numerical substrate the reproduction needs
// and that the Go standard library does not provide: one-dimensional
// quadrature (adaptive Simpson and fixed-order Gauss–Legendre), stable
// binomial probabilities via log-gamma, normal distribution helpers,
// piecewise-linear interpolation tables, and the least-squares step of
// the multilateration baselines.
package mathx

import "math"

// Func1 is a scalar function of one variable.
type Func1 func(x float64) float64

// AdaptiveSimpson integrates f over [a, b] with adaptive interval
// subdivision until the local Richardson error estimate is below tol.
// maxDepth bounds the recursion (30 is plenty for smooth integrands).
// The routine is exact for cubics on each panel and is the reference
// integrator for Theorem 1's g(z).
func AdaptiveSimpson(f Func1, a, b, tol float64, maxDepth int) float64 {
	if a == b {
		return 0
	}
	if b < a {
		return -AdaptiveSimpson(f, b, a, tol, maxDepth)
	}
	fa, fb := f(a), f(b)
	m := (a + b) / 2
	fm := f(m)
	whole := simpsonPanel(a, b, fa, fm, fb)
	return adaptiveSimpsonRec(f, a, b, fa, fm, fb, whole, tol, maxDepth)
}

func simpsonPanel(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpsonRec(f Func1, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	lm := (a + m) / 2
	rm := (m + b) / 2
	flm, frm := f(lm), f(rm)
	left := simpsonPanel(a, m, fa, flm, fm)
	right := simpsonPanel(m, b, fm, frm, fb)
	if depth <= 0 {
		return left + right
	}
	diff := left + right - whole
	if math.Abs(diff) <= 15*tol {
		return left + right + diff/15
	}
	return adaptiveSimpsonRec(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpsonRec(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// gauss-Legendre nodes and weights on [-1, 1], order 16. Values from
// Abramowitz & Stegun table 25.4 (symmetric; only positive nodes listed).
var gl16Nodes = [...]float64{
	0.0950125098376374, 0.2816035507792589,
	0.4580167776572274, 0.6178762444026438,
	0.7554044083550030, 0.8656312023878318,
	0.9445750230732326, 0.9894009349916499,
}

var gl16Weights = [...]float64{
	0.1894506104550685, 0.1826034150449236,
	0.1691565193950025, 0.1495959888165767,
	0.1246289712555339, 0.0951585116824928,
	0.0622535239386479, 0.0271524594117541,
}

// GaussLegendre16 integrates f over [a, b] with a single 16-point
// Gauss–Legendre rule. It is exact for polynomials of degree <= 31 and is
// the fast path used when building g(z) lookup tables.
func GaussLegendre16(f Func1, a, b float64) float64 {
	c := (b + a) / 2
	h := (b - a) / 2
	var sum float64
	for i := range gl16Nodes {
		x := h * gl16Nodes[i]
		sum += gl16Weights[i] * (f(c+x) + f(c-x))
	}
	return h * sum
}

// GaussLegendreComposite splits [a, b] into n equal panels and applies
// GaussLegendre16 on each. n < 1 is treated as 1.
func GaussLegendreComposite(f Func1, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		lo := a + float64(i)*h
		sum += GaussLegendre16(f, lo, lo+h)
	}
	return sum
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
