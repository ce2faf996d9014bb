package deploy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/rng"
)

const (
	testR     = 50.0
	testSigma = 50.0
)

func TestGExactAtZero(t *testing.T) {
	// Closed form: g(0) = 1 − e^{−R²/2σ²}.
	want := 1 - math.Exp(-testR*testR/(2*testSigma*testSigma))
	if got := GExact(0, testR, testSigma); math.Abs(got-want) > 1e-9 {
		t.Errorf("g(0) = %v, want %v", got, want)
	}
	// Continuity approaching zero.
	if got := GExact(1e-6, testR, testSigma); math.Abs(got-want) > 1e-5 {
		t.Errorf("g(1e-6) = %v, want ≈ %v", got, want)
	}
}

func TestGExactMatchesMonteCarloIntegral(t *testing.T) {
	// Reference: 2-D quadrature of the Gaussian over the neighborhood
	// disk, computed independently of the Theorem 1 decomposition.
	ref := func(z float64) float64 {
		// Integrate density over x in [z−R, z+R], y chord.
		f := func(x float64) float64 {
			half := math.Sqrt(math.Max(0, testR*testR-(x-z)*(x-z)))
			inner := func(y float64) float64 {
				return mathx.Gauss2DPDF(x, y, testSigma)
			}
			return mathx.AdaptiveSimpson(inner, -half, half, 1e-12, 30)
		}
		return mathx.AdaptiveSimpson(f, z-testR, z+testR, 1e-11, 30)
	}
	for _, z := range []float64{0, 10, 25, 50, 75, 100, 150, 200} {
		want := ref(z)
		got := GExact(z, testR, testSigma)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("g(%v) = %.9f, reference 2-D integral = %.9f", z, got, want)
		}
	}
}

func TestGExactMonotoneDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for z := 0.0; z <= 400; z += 5 {
		g := GExact(z, testR, testSigma)
		if g > prev+1e-9 {
			t.Fatalf("g not non-increasing at z=%v: %v > %v", z, g, prev)
		}
		if g < 0 || g > 1 {
			t.Fatalf("g(%v) = %v out of [0,1]", z, g)
		}
		prev = g
	}
}

func TestGExactTailIsZero(t *testing.T) {
	if got := GExact(testR+tailSigmas*testSigma, testR, testSigma); got != 0 {
		t.Errorf("tail g = %v, want 0", got)
	}
	if got := GExact(1e9, testR, testSigma); got != 0 {
		t.Errorf("far g = %v, want 0", got)
	}
	// Negative z mirrors positive.
	if got, want := GExact(-30, testR, testSigma), GExact(30, testR, testSigma); got != want {
		t.Errorf("g(-30)=%v, g(30)=%v", got, want)
	}
	if got := GExact(10, 0, testSigma); got != 0 {
		t.Errorf("R=0 should give 0, got %v", got)
	}
}

func TestGExactLargeRangeApproachesOne(t *testing.T) {
	// With R >> σ and z = 0 the disk captures nearly all the mass.
	if got := GExact(0, 10*testSigma, testSigma); got < 0.999999 {
		t.Errorf("g(0) with huge R = %v, want ≈ 1", got)
	}
}

func TestGExactMatchesBernoulliSimulation(t *testing.T) {
	// Empirical check: fraction of Gaussian-placed nodes within R of a
	// probe point at distance z must match g(z).
	r := rng.New(12345)
	const trials = 400000
	for _, z := range []float64{0, 30, 60, 90, 120} {
		probe := geom.Pt(z, 0)
		hits := 0
		for i := 0; i < trials; i++ {
			dx, dy := r.Gauss2D(testSigma)
			if geom.Pt(dx, dy).Dist(probe) <= testR {
				hits++
			}
		}
		got := float64(hits) / trials
		want := GExact(z, testR, testSigma)
		se := math.Sqrt(want*(1-want)/trials) + 1e-9
		if math.Abs(got-want) > 5*se+1e-4 {
			t.Errorf("z=%v: MC=%v theory=%v (se=%v)", z, got, want, se)
		}
	}
}

func TestGTableAccuracy(t *testing.T) {
	// The paper's claim: small ω suffices. Check error decays with ω and
	// is already tight at the default.
	var prev = math.Inf(1)
	for _, omega := range []int{32, 128, 512} {
		tb := NewGTable(testR, testSigma, omega)
		e := tb.MaxAbsError(3)
		if e > prev*1.2 { // allow tiny non-monotonic noise
			t.Errorf("error grew with omega=%d: %v > %v", omega, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Errorf("default-scale table error too large: %v", prev)
	}
}

func TestGTableEvalMatchesExact(t *testing.T) {
	tb := NewGTable(testR, testSigma, DefaultOmega)
	for z := 0.0; z < tb.MaxZ(); z += 7.3 {
		got := tb.Eval(z)
		want := GExact(z, testR, testSigma)
		if math.Abs(got-want) > 1e-4 {
			t.Errorf("table g(%v) = %v, exact %v", z, got, want)
		}
	}
	if tb.Eval(tb.MaxZ()+1) != 0 {
		t.Error("beyond MaxZ should be 0")
	}
	if got, want := tb.Eval(-20), tb.Eval(20); got != want {
		t.Error("negative z should mirror")
	}
	if tb.Omega() != DefaultOmega {
		t.Errorf("Omega = %d", tb.Omega())
	}
	r, s := tb.Params()
	if r != testR || s != testSigma {
		t.Errorf("Params = %v, %v", r, s)
	}
}

func TestGTableDegenerateOmega(t *testing.T) {
	tb := NewGTable(testR, testSigma, 0) // coerced to 1
	if tb.Omega() != 1 {
		t.Errorf("Omega = %d, want 1", tb.Omega())
	}
	if v := tb.Eval(0); v < 0 || v > 1 {
		t.Errorf("Eval out of range: %v", v)
	}
}

func TestGExactBoundedProperty(t *testing.T) {
	f := func(zRaw, rRaw, sRaw float64) bool {
		z := math.Abs(math.Mod(zRaw, 500))
		r := math.Abs(math.Mod(rRaw, 200)) + 1
		s := math.Abs(math.Mod(sRaw, 100)) + 1
		g := GExact(z, r, s)
		return g >= 0 && g <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGExactMonotoneInRangeProperty(t *testing.T) {
	// Larger transmission range can only increase g.
	f := func(zRaw, rRaw float64) bool {
		z := math.Abs(math.Mod(zRaw, 300))
		r := math.Abs(math.Mod(rRaw, 100)) + 5
		return GExact(z, r*1.3, testSigma) >= GExact(z, r, testSigma)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLogEvalNBitIdenticalToLogEval2 pins the localization inner loops'
// table lookup to the scalar one: for any squared distance — interior,
// table-edge, beyond-MaxZ, zero — LogAt over the raw LogTableView must
// return bit-for-bit the pair LogEval2 returns. LogAt replaced the
// batched LogEvalN; the probe engine's equivalence guarantee stands on
// this.
func TestLogEvalNBitIdenticalToLogEval2(t *testing.T) {
	gt := NewGTable(50, 50, DefaultOmega)
	maxZ2 := gt.MaxZ2()
	r := rng.New(9)
	z2s := []float64{0, 1e-12, maxZ2 / 2, maxZ2 * (1 - 1e-15), maxZ2, maxZ2 + 1, 4 * maxZ2}
	for i := 0; i < 2000; i++ {
		z2s = append(z2s, r.Float64()*maxZ2*1.2)
	}
	v := gt.LogTable()
	for _, z2 := range z2s {
		lnG, ln1G := LogAt(v.Logs, v.InvStep, v.MaxZ2, v.LnEps, len(v.Logs)-2, z2)
		wantG, want1G := gt.LogEval2(z2)
		if lnG != wantG || ln1G != want1G {
			t.Fatalf("z2=%v: LogAt (%v,%v) != LogEval2 (%v,%v)",
				z2, lnG, ln1G, wantG, want1G)
		}
	}
}

// TestModelPointsView pins the bulk point accessor: same values as
// DeploymentPoint, shared backing (no copy).
func TestModelPointsView(t *testing.T) {
	m := MustNew(PaperConfig())
	pts := m.Points()
	if len(pts) != m.NumGroups() {
		t.Fatalf("Points() has %d entries, want %d", len(pts), m.NumGroups())
	}
	for i := range pts {
		if pts[i] != m.DeploymentPoint(i) {
			t.Fatalf("Points()[%d] = %v != DeploymentPoint %v", i, pts[i], m.DeploymentPoint(i))
		}
	}
}
