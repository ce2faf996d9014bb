package deploy

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// DefaultOmega is the default number of sub-ranges of the g(z) lookup
// table. The paper observes that "to gain satisfactory level of accuracy,
// ω does not need to be very large"; TestGTableAccuracy quantifies this
// (max error < 1e-4 already at ω = 256 for the paper's parameters).
const DefaultOmega = 512

// tailSigmas controls where g(z) is treated as exactly zero: beyond
// z = R + tailSigmas·σ the Gaussian mass inside the neighborhood disk is
// below ~1e-8 and not worth tabulating.
const tailSigmas = 6

// GExact evaluates Theorem 1 of the paper by adaptive quadrature:
//
//	g(z) = 1{z<R}·(1 − e^{−(R−z)²/2σ²})
//	     + ∫_{|z−R|}^{z+R} f_R(ℓ)·2ℓ·acos((ℓ²+z²−R²)/(2ℓz)) dℓ
//
// where f_R(ℓ) = 1/(2πσ²)·e^{−ℓ²/2σ²}. It is the probability that a node
// whose resident point is an isotropic Gaussian (σ) around its deployment
// point lands within distance R of a point z away from that deployment
// point.
//
// The z = 0 case degenerates (the acos argument divides by z); there the
// neighborhood disk is centered on the deployment point and the answer is
// the Rayleigh CDF 1 − e^{−R²/2σ²} in closed form.
func GExact(z, r, sigma float64) float64 {
	if z < 0 {
		z = -z
	}
	if r <= 0 {
		return 0
	}
	if z < 1e-9 {
		return mathx.RayleighCDF(r, sigma)
	}
	if z >= r+tailSigmas*sigma {
		return 0
	}

	var g float64
	if z < r {
		// Radii ℓ < R−z lie entirely inside the neighborhood disk: their
		// whole circle contributes, which integrates in closed form to the
		// Rayleigh CDF at R−z. This is the paper's first term.
		g = mathx.RayleighCDF(r-z, sigma)
	}

	lo, hi := math.Abs(z-r), z+r
	// Truncate the upper limit at the Gaussian tail: beyond ~8σ the
	// density underflows and only wastes quadrature points.
	if tail := tailSigmas * sigma * 1.5; hi > tail && lo < tail {
		hi = tail
	}
	if hi <= lo {
		return clamp01(g)
	}
	s2 := sigma * sigma
	integrand := func(l float64) float64 {
		// Density over the plane at radius ℓ times the arc length of the
		// circle of radius ℓ that lies inside the neighborhood disk.
		f := math.Exp(-l*l/(2*s2)) / (2 * math.Pi * s2)
		return f * 2 * l * geom.ChordHalfAngle(l, z, r)
	}
	g += mathx.AdaptiveSimpson(integrand, lo, hi, 1e-10, 30)
	return clamp01(g)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// LogClampEps is the probability floor/ceiling applied before taking
// logarithms of g: likelihoods clamp g into [LogClampEps, 1−LogClampEps]
// so impossible observations stay finite (strongly penalized, still
// climbable). The log-space companion table bakes the same clamp into
// its samples, so table-driven and direct log evaluation agree on the
// convention.
const LogClampEps = 1e-9

// GTable is the precomputed lookup table for g(z) prescribed by Section
// 3.3: ω equal sub-ranges over [0, R+6σ] with linear interpolation, so a
// sensor evaluates g in constant time. Beyond the table domain g is 0.
//
// Alongside the linear g(z) table it carries a log-space companion:
// samples of ln g and ln(1−g) on a grid uniform in the *squared* distance
// z². LogEval2 interpolates both in one lookup keyed by z², which lets
// the localization likelihood evaluate a candidate point with zero
// math.Sqrt, math.Log, or math.Log1p calls per group — the training/MLE
// hot path of the paper's Section 5.5.
type GTable struct {
	r, sigma float64
	table    *mathx.LinearTable

	// Log-space companion, uniform in s = z² over [0, MaxZ²]. Samples are
	// interleaved pairs {ln clamp(g), ln(1 − clamp(g))} so one lookup
	// touches one cache line and two bounds checks instead of two arrays.
	maxZ2   float64
	invStep float64      // logOmega / maxZ2
	logs    [][2]float64 // {ln g, ln(1−g)} at k·maxZ2/logOmega
	lnEps   float64      // ln LogClampEps, the far-group penalty constant
}

// logOmegaFactor scales the log-companion resolution relative to ω. The
// companion is parameterized by z², which spends resolution on large z
// (where ln g plunges toward the clamp) and little near z = 0 (where ln g
// is flat); 4ω samples keep its interpolation error in ln g comparable
// to the linear table's error in g. See TestGTableLogEvalAccuracy.
const logOmegaFactor = 4

// NewGTable precomputes g(z) at omega+1 points for the given transmission
// range and deployment spread, plus the log-space companion table.
func NewGTable(r, sigma float64, omega int) *GTable {
	if omega < 1 {
		omega = 1
	}
	maxZ := r + tailSigmas*sigma
	t, err := mathx.NewLinearTable(func(z float64) float64 {
		return GExact(z, r, sigma)
	}, 0, maxZ, omega)
	if err != nil {
		// Unreachable for validated inputs: omega >= 1 and maxZ > 0.
		panic(err)
	}
	g := &GTable{r: r, sigma: sigma, table: t}
	g.buildLogTable(logOmegaFactor * omega)
	return g
}

// buildLogTable samples the clamped log-probabilities off the linear
// table (so the companion is the log of the g the likelihood would
// otherwise clamp and log directly — cheap to build, consistent by
// construction).
func (g *GTable) buildLogTable(logOmega int) {
	maxZ := g.MaxZ()
	g.maxZ2 = maxZ * maxZ
	g.invStep = float64(logOmega) / g.maxZ2
	g.logs = make([][2]float64, logOmega+1)
	g.lnEps = math.Log(LogClampEps)
	step := g.maxZ2 / float64(logOmega)
	for k := range g.logs {
		z := math.Sqrt(float64(k) * step)
		gv := mathx.Clamp(g.Eval(z), LogClampEps, 1-LogClampEps)
		g.logs[k] = [2]float64{math.Log(gv), math.Log1p(-gv)}
	}
}

// Eval returns the interpolated g(z); 0 beyond MaxZ.
func (g *GTable) Eval(z float64) float64 {
	if z < 0 {
		z = -z
	}
	if z >= g.MaxZ() {
		return 0
	}
	return g.table.Eval(z)
}

// MaxZ returns the distance beyond which g is treated as zero.
func (g *GTable) MaxZ() float64 { return g.r + tailSigmas*g.sigma }

// MaxZ2 returns MaxZ squared — the threshold LogEval2 callers compare
// squared distances against.
func (g *GTable) MaxZ2() float64 { return g.maxZ2 }

// LnEps returns ln(LogClampEps): the log-probability assigned to an
// observation from a group beyond MaxZ. Precomputed so likelihood inner
// loops never call math.Log.
func (g *GTable) LnEps() float64 { return g.lnEps }

// LogEval2 returns the clamped log-probabilities (ln g, ln(1−g)) at
// squared distance z2, interpolated from the log-space companion table.
// Beyond MaxZ² it returns (LnEps, 0): g is zero there, so observing a
// neighbor is penalized at the clamp floor and observing none costs
// nothing — exactly the convention the beaconless likelihood uses, which
// makes the far-group contribution o·lnG + (m−o)·ln1G correct without
// any branch in the caller.
func (g *GTable) LogEval2(z2 float64) (lnG, ln1G float64) {
	return LogAt(g.logs, g.invStep, g.maxZ2, g.lnEps, len(g.logs)-2, z2)
}

// LogAt is the one log-companion interpolation: LogEval2 over a raw
// table view, with last = len(logs)−2 the highest left sample index.
// z2 must be finite and non-negative (a squared distance). Likelihood
// inner loops fetch the view once and call LogAt per group per probe;
// it inlines (its cost sits one below the compiler's budget of 80, and
// CI fails if it stops inlining), so those loops pay no call. The
// right-edge clamp is phrased unsigned: for the non-negative k of a
// squared distance it is the same condition as k > last, and one
// comparison bounds k on both sides.
func LogAt(logs [][2]float64, invStep, maxZ2, lnEps float64, last int, z2 float64) (lnG, ln1G float64) {
	if z2 >= maxZ2 {
		return lnEps, 0
	}
	u := z2 * invStep
	k := int(u)
	if uint(k) > uint(last) { // float rounding at the right edge
		k = last
	}
	f := u - float64(k)
	lo, hi := logs[k], logs[k+1]
	return lo[0] + (hi[0]-lo[0])*f, lo[1] + (hi[1]-lo[1])*f
}

// LogTableView is the raw log-companion table: the interleaved
// {ln g, ln(1−g)} samples plus the constants LogAt combines them with.
// The slice is shared, not a copy — callers must not write to it.
type LogTableView struct {
	Logs    [][2]float64
	InvStep float64
	MaxZ2   float64
	LnEps   float64
}

// LogTable returns the raw view of the log-space companion table.
func (g *GTable) LogTable() LogTableView {
	return LogTableView{Logs: g.logs, InvStep: g.invStep, MaxZ2: g.maxZ2, LnEps: g.lnEps}
}

// Omega returns the number of sub-ranges in the table.
func (g *GTable) Omega() int { return g.table.Omega() }

// Params returns the (R, σ) the table was built for.
func (g *GTable) Params() (r, sigma float64) { return g.r, g.sigma }

// MaxAbsError reports the worst interpolation error against the exact
// integral, probing k points per sub-range. Used by the ω-sweep ablation.
func (g *GTable) MaxAbsError(k int) float64 {
	return g.table.MaxAbsError(func(z float64) float64 {
		return GExact(z, g.r, g.sigma)
	}, k)
}
