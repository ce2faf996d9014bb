package mathx

import "math"

// NormalPDF returns the density of N(mu, sigma²) at x.
func NormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-z*z/2) / (sigma * math.Sqrt(2*math.Pi))
}

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma²).
func NormalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// Gauss2DPDF returns the isotropic two-dimensional Gaussian density
//
//	f(x, y) = 1/(2πσ²) · exp(−(x²+y²)/(2σ²))
//
// used by the paper's deployment distribution (Section 3.2), where (x, y)
// is the displacement from the deployment point.
func Gauss2DPDF(dx, dy, sigma float64) float64 {
	s2 := sigma * sigma
	return math.Exp(-(dx*dx+dy*dy)/(2*s2)) / (2 * math.Pi * s2)
}

// RayleighCDF returns P(L <= l) where L is the distance from the mean of an
// isotropic 2-D Gaussian with parameter sigma: 1 − exp(−l²/2σ²). This is
// the closed form behind the first term of Theorem 1.
func RayleighCDF(l, sigma float64) float64 {
	if l <= 0 {
		return 0
	}
	return -math.Expm1(-l * l / (2 * sigma * sigma))
}

// LogChoose returns ln C(n, k) computed via log-gamma, stable for the
// n = 1000 group sizes of Figure 9.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln - lk - lnk
}

// BinomClampEps is how far BinomLogPMF keeps p from 0 and 1, so for
// k in [0, n] its result is at least n·ln(BinomClampEps).
const BinomClampEps = 1e-12

// BinomLogPMF returns ln P(X = k) for X ~ Binomial(n, p). Probabilities
// are clamped away from {0, 1} so that impossible observations yield a
// very small but finite log-likelihood instead of −Inf, which keeps the
// MLE localization search well behaved. A k outside [0, n] is −Inf.
func BinomLogPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	p = Clamp(p, BinomClampEps, 1-BinomClampEps)
	return LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// BinomPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(BinomLogPMF(k, n, p))
}

// BinomCDF returns P(X <= k) for X ~ Binomial(n, p) by direct summation.
// n is at most ~1000 in this codebase, so the loop is fine.
func BinomCDF(k, n int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var sum float64
	for i := 0; i <= k; i++ {
		sum += BinomPMF(i, n, p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomMode returns the most likely outcome of Binomial(n, p):
// floor((n+1)p), clamped to [0, n]. The greedy Probability-metric attacker
// drives tainted observations toward this value.
func BinomMode(n int, p float64) int {
	m := int(math.Floor(float64(n+1) * p))
	if m < 0 {
		m = 0
	}
	if m > n {
		m = n
	}
	return m
}
