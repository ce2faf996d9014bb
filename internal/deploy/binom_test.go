package deploy

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// refBinomCDF computes the exact Binomial(n, p) CDF by the same lgamma
// seeding the table builder uses but over the FULL support, so the tests
// check the builder's truncation/normalization against an independent
// accumulation.
func refBinomCDF(n int, p float64) []float64 {
	cdf := make([]float64, n+1)
	lnP, ln1P := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for k := 0; k <= n; k++ {
		sum += binomPMF(n, k, lnP, ln1P)
		cdf[k] = sum
	}
	return cdf
}

// TestBinomTableMatchesExactCDF checks that the truncated, normalized
// table CDF agrees with the full-support CDF to within the truncation
// budget across the (n, p) shapes the sampler meets: the paper's group
// sizes and the near/far-bin probability range.
func TestBinomTableMatchesExactCDF(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{300, 0.3934693402873666}, // paper m, g(0) = Rayleigh CDF(R=σ=50)
		{300, 0.05},
		{299, 0.3934693402873666}, // self group
		{300, 1e-6},               // far bin
		{300, 0.999},              // p > 0.5 shapes (not reached by g, still correct)
		{1, 0.5},
		{7, 0.2},
		{1000, 0.5}, // (1-p)^n underflow territory for a naive builder
	}
	for _, tc := range cases {
		tab := newBinomTable(tc.n, tc.p)
		ref := refBinomCDF(tc.n, tc.p)
		lo, hi := int(tab.base), int(tab.base)+len(tab.cdf)-1
		if lo < 0 || hi > tc.n {
			t.Fatalf("n=%d p=%g: support [%d,%d] outside [0,%d]", tc.n, tc.p, lo, hi, tc.n)
		}
		for k := lo; k <= hi; k++ {
			got := tab.cdf[k-lo]
			want := ref[k]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d p=%g: cdf[%d] = %g, exact %g", tc.n, tc.p, k, got, want)
			}
			if k > lo && tab.cdf[k-lo] < tab.cdf[k-lo-1] {
				t.Fatalf("n=%d p=%g: cdf not monotone at %d", tc.n, tc.p, k)
			}
		}
		if last := tab.cdf[len(tab.cdf)-1]; last != 1 {
			t.Fatalf("n=%d p=%g: final cdf entry %g, want exactly 1", tc.n, tc.p, last)
		}
	}
}

// TestBinomTableDrawInvertsCDF checks the guide-accelerated draw against
// the definition: the smallest support value whose cumulative
// probability exceeds u.
func TestBinomTableDrawInvertsCDF(t *testing.T) {
	tab := newBinomTable(300, 0.17)
	naive := func(u float64) int {
		for k, c := range tab.cdf {
			if u < c {
				return int(tab.base) + k
			}
		}
		return int(tab.base) + len(tab.cdf) - 1
	}
	r := rng.New(99)
	for i := 0; i < 20000; i++ {
		u := r.Float64()
		if got, want := tab.draw(u), naive(u); got != want {
			t.Fatalf("draw(%v) = %d, naive inversion %d", u, got, want)
		}
	}
	// Boundary values: exactly at and just below internal CDF steps
	// (skipping entries that round to 1 — draw's domain is [0, 1)).
	for k, c := range tab.cdf[:len(tab.cdf)-1] {
		if c >= 1 {
			continue
		}
		if got := tab.draw(c); got != int(tab.base)+k+1 {
			t.Fatalf("draw(cdf[%d]) = %d, want %d (u == cdf[k] selects k+1)", k, got, int(tab.base)+k+1)
		}
		below := math.Nextafter(c, 0)
		if got := tab.draw(below); got != naive(below) {
			t.Fatalf("draw(just below cdf[%d]) = %d, want %d", k, got, naive(below))
		}
	}
	if got := tab.draw(0); got != int(tab.base) {
		t.Fatalf("draw(0) = %d, want support base %d", got, int(tab.base))
	}
}

// TestBinomTableDegenerate pins the edge tables: zero trials or zero
// probability always draw 0; certain probability always draws n.
func TestBinomTableDegenerate(t *testing.T) {
	for _, u := range []float64{0, 0.5, 0.999999} {
		if got := newBinomTable(0, 0.5).draw(u); got != 0 {
			t.Fatalf("n=0 draw = %d, want 0", got)
		}
		if got := newBinomTable(10, 0).draw(u); got != 0 {
			t.Fatalf("p=0 draw = %d, want 0", got)
		}
		if got := newBinomTable(10, 1).draw(u); got != 10 {
			t.Fatalf("p=1 draw = %d, want 10", got)
		}
	}
}

// TestBinomTableSampleMoments draws through the table and checks the
// empirical mean and variance against np and np(1−p) — a smoke test
// that the guide/scan machinery samples the distribution it stores.
func TestBinomTableSampleMoments(t *testing.T) {
	const n, p, draws = 300, 0.12, 200000
	tab := newBinomTable(n, p)
	r := rng.New(4242)
	var sum, sum2 float64
	for i := 0; i < draws; i++ {
		v := float64(tab.draw(r.Float64()))
		sum += v
		sum2 += v * v
	}
	mean := sum / draws
	varv := sum2/draws - mean*mean
	wantMean := float64(n) * p
	wantVar := wantMean * (1 - p)
	// ±5 standard errors of the estimators.
	seMean := math.Sqrt(wantVar / draws)
	if math.Abs(mean-wantMean) > 5*seMean {
		t.Fatalf("mean %g, want %g ± %g", mean, wantMean, 5*seMean)
	}
	if math.Abs(varv-wantVar) > 0.05*wantVar {
		t.Fatalf("variance %g, want %g ± 5%%", varv, wantVar)
	}
}

// scanSampleObservationTableInto is the full-scan oracle of
// SampleObservationTableInto: every group in ascending order, with the
// same distance arithmetic and the same one-uniform-per-group draw.
func scanSampleObservationTableInto(m *Model, dst []int, loc geom.Point, self int, r *rng.Rand) {
	maxZ := m.gTable.MaxZ()
	for i, dp := range m.points {
		dx, dy := loc.X-dp.X, loc.Y-dp.Y
		z := math.Sqrt(dx*dx + dy*dy)
		if z >= maxZ {
			dst[i] = 0
			continue
		}
		dst[i] = m.sampleGroupTable(i == self, z, r)
	}
}

// TestSampleObservationTableIndexInvariant is the epoch-2 analogue of
// the epoch-1 index equivalence: the table sampler consumes one uniform
// per group within MaxZ in ascending group order, so the indexed draws
// are bit-identical to the full-scan oracle's.
func TestSampleObservationTableIndexInvariant(t *testing.T) {
	for name, cfg := range indexTestConfigs() {
		m := MustNew(cfg)
		o1 := make([]int, m.NumGroups())
		o2 := make([]int, m.NumGroups())
		r := rng.New(7)
		for trial := 0; trial < 50; trial++ {
			g, p := m.SampleLocation(r)
			r1, r2 := rng.New(uint64(trial)), rng.New(uint64(trial))
			m.SampleObservationTableInto(o1, p, g, r1)
			scanSampleObservationTableInto(m, o2, p, g, r2)
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("%s trial %d: o[%d] indexed %d != scan %d", name, trial, i, o1[i], o2[i])
				}
			}
			if v1, v2 := r1.Uint64(), r2.Uint64(); v1 != v2 {
				t.Fatalf("%s trial %d: RNG streams diverged", name, trial)
			}
		}
	}
}

// TestSampleObservationTableMatchesEpoch1Moments compares per-group
// sample means between the epoch-1 and epoch-2 samplers at a fixed
// location: the quantized-p tables must reproduce the same expected
// observation to within sampling noise plus the table resolution.
func TestSampleObservationTableMatchesEpoch1Moments(t *testing.T) {
	model := MustNew(PaperConfig())
	loc := model.DeploymentPoint(44) // interior cell
	const trials = 4000
	n := model.NumGroups()
	o := make([]int, n)
	sum1 := make([]float64, n)
	sum2 := make([]float64, n)
	r := rng.New(5)
	for i := 0; i < trials; i++ {
		model.SampleObservationInto(o, loc, 44, r)
		for g, v := range o {
			sum1[g] += float64(v)
		}
		model.SampleObservationTableInto(o, loc, 44, r)
		for g, v := range o {
			sum2[g] += float64(v)
		}
	}
	mm := float64(model.GroupSize())
	for g := 0; g < n; g++ {
		mu := mm * model.G(g, loc)
		if g == 44 {
			mu = (mm - 1) * model.G(g, loc)
		}
		se := math.Sqrt(math.Max(mu, 1) / trials)
		m1, m2 := sum1[g]/trials, sum2[g]/trials
		if math.Abs(m1-mu) > 6*se+0.02 {
			t.Fatalf("epoch-1 mean group %d: %g, want %g ± %g", g, m1, mu, 6*se+0.02)
		}
		if math.Abs(m2-mu) > 6*se+0.02 {
			t.Fatalf("epoch-2 mean group %d: %g, want %g ± %g", g, m2, mu, 6*se+0.02)
		}
	}
}
