package deploy

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg)
	if m.NumGroups() != 100 {
		t.Errorf("NumGroups = %d, want 100", m.NumGroups())
	}
	if m.GroupSize() != 300 {
		t.Errorf("GroupSize = %d", m.GroupSize())
	}
	if m.TotalNodes() != 30000 {
		t.Errorf("TotalNodes = %d", m.TotalNodes())
	}
	// Figure 1 coordinates: first point (50,50), next (150,50), last (950,950).
	if got := m.DeploymentPoint(0); got != geom.Pt(50, 50) {
		t.Errorf("point 0 = %v", got)
	}
	if got := m.DeploymentPoint(1); got != geom.Pt(150, 50) {
		t.Errorf("point 1 = %v", got)
	}
	if got := m.DeploymentPoint(99); got != geom.Pt(950, 950) {
		t.Errorf("point 99 = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	base := PaperConfig()
	inf, nan := math.Inf(1), math.NaN()
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty field", func(c *Config) { c.Field = geom.Rect{} }},
		{"zero groups x", func(c *Config) { c.GroupsX = 0 }},
		{"negative groups y", func(c *Config) { c.GroupsY = -1 }},
		{"zero group size", func(c *Config) { c.GroupSize = 0 }},
		{"zero sigma", func(c *Config) { c.Sigma = 0 }},
		{"negative range", func(c *Config) { c.Range = -5 }},
		{"huge sigma", func(c *Config) { c.Sigma = 1e300 }},
		{"inf sigma", func(c *Config) { c.Sigma = inf }},
		{"nan sigma", func(c *Config) { c.Sigma = nan }},
		{"sigma past extent", func(c *Config) { c.Sigma = MaxExtent * 1.5 }},
		{"huge range", func(c *Config) { c.Range = 1e160 }},
		{"inf range", func(c *Config) { c.Range = inf }},
		{"nan range", func(c *Config) { c.Range = nan }},
		{"field max 1e308", func(c *Config) { c.Field.Max = geom.Pt(1e308, 1e308) }},
		{"field min -1e308", func(c *Config) { c.Field.Min = geom.Pt(-1e308, 0) }},
		{"inf field corner", func(c *Config) { c.Field.Max.Y = inf }},
		{"nan field corner", func(c *Config) { c.Field.Min.X = nan }},
		{"far-away field", func(c *Config) { c.Field = geom.NewRect(geom.Pt(2e7, 0), geom.Pt(2e7+100, 100)) }},
		{"field wider than extent", func(c *Config) { c.Field = geom.NewRect(geom.Pt(-9e6, 0), geom.Pt(9e6, 100)) }},
	}
	for _, tc := range bad {
		c := base
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
		if _, err := New(c); err == nil {
			t.Errorf("%s: New should fail", tc.name)
		}
	}
	// The bound itself is accepted, and a model at it builds and samples.
	edge := base
	edge.Field = geom.NewRect(geom.Pt(-MaxExtent/2, -MaxExtent/2), geom.Pt(MaxExtent/2, MaxExtent/2))
	edge.Sigma, edge.Range = MaxExtent, MaxExtent
	m, err := New(edge)
	if err != nil {
		t.Fatalf("config at MaxExtent rejected: %v", err)
	}
	if o := m.SampleObservation(m.Field().Center(), 0, rng.New(1)); len(o) != m.NumGroups() {
		t.Fatalf("sampling at MaxExtent: %d groups", len(o))
	}
	if _, err := New(Config{Field: base.Field, GroupsX: 2, GroupsY: 2,
		GroupSize: 10, Sigma: 50, Range: 50, Layout: Layout(99)}); err == nil {
		t.Error("unknown layout should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	c := base
	c.Sigma = -1
	MustNew(c)
}

func TestLayouts(t *testing.T) {
	cfg := PaperConfig()
	for _, layout := range []Layout{LayoutGrid, LayoutHex, LayoutRandom} {
		c := cfg
		c.Layout = layout
		c.RandomSeed = 7
		m := MustNew(c)
		if m.NumGroups() != 100 {
			t.Errorf("%v: NumGroups = %d", layout, m.NumGroups())
		}
		for i := 0; i < m.NumGroups(); i++ {
			p := m.DeploymentPoint(i)
			if !cfg.Field.Contains(p) {
				t.Errorf("%v: point %d = %v outside field", layout, i, p)
			}
		}
	}
	if LayoutGrid.String() != "grid" || LayoutHex.String() != "hex" ||
		LayoutRandom.String() != "random" || Layout(9).String() == "" {
		t.Error("Layout.String misbehaves")
	}
	// Random layout is seed-deterministic.
	c := cfg
	c.Layout = LayoutRandom
	c.RandomSeed = 42
	m1, m2 := MustNew(c), MustNew(c)
	for i := range m1.DeploymentPoints() {
		if m1.DeploymentPoint(i) != m2.DeploymentPoint(i) {
			t.Fatal("random layout not deterministic for a fixed seed")
		}
	}
}

func TestHexOffsetRows(t *testing.T) {
	c := PaperConfig()
	c.Layout = LayoutHex
	m := MustNew(c)
	// Row 0 and row 1 should be offset by half a cell width (mod field).
	p0 := m.DeploymentPoint(0)  // row 0, col 0
	p1 := m.DeploymentPoint(10) // row 1, col 0
	dx := math.Mod(math.Abs(p1.X-p0.X), 100)
	if math.Abs(dx-50) > 1e-9 {
		t.Errorf("hex row offset = %v, want 50", dx)
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	m := MustNew(PaperConfig())
	// Riemann sum of group 55's pdf over a generous box around its point.
	dp := m.DeploymentPoint(55)
	const step = 2.0
	var sum float64
	for x := dp.X - 400; x < dp.X+400; x += step {
		for y := dp.Y - 400; y < dp.Y+400; y += step {
			sum += m.PDF(55, geom.Pt(x, y)) * step * step
		}
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("pdf mass = %v, want 1", sum)
	}
	// Peak at the deployment point.
	if m.PDF(55, dp) < m.PDF(55, dp.Add(geom.V(10, 0))) {
		t.Error("pdf should peak at the deployment point")
	}
}

func TestSampleResidentDistribution(t *testing.T) {
	m := MustNew(PaperConfig())
	r := rng.New(99)
	const n = 50000
	var sx, sy, sxx, syy float64
	dp := m.DeploymentPoint(42)
	for i := 0; i < n; i++ {
		p := m.SampleResident(42, r)
		sx += p.X - dp.X
		sy += p.Y - dp.Y
		sxx += (p.X - dp.X) * (p.X - dp.X)
		syy += (p.Y - dp.Y) * (p.Y - dp.Y)
	}
	if math.Abs(sx/n) > 1.5 || math.Abs(sy/n) > 1.5 {
		t.Errorf("mean offset = (%v, %v), want ~0", sx/n, sy/n)
	}
	sigma2 := m.Sigma() * m.Sigma()
	if math.Abs(sxx/n-sigma2)/sigma2 > 0.05 || math.Abs(syy/n-sigma2)/sigma2 > 0.05 {
		t.Errorf("variance = (%v, %v), want %v", sxx/n, syy/n, sigma2)
	}
}

func TestSampleLocationCoversGroups(t *testing.T) {
	m := MustNew(PaperConfig())
	r := rng.New(3)
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		g, p := m.SampleLocation(r)
		if g < 0 || g >= m.NumGroups() {
			t.Fatalf("group out of range: %d", g)
		}
		if !p.IsFinite() {
			t.Fatalf("non-finite location %v", p)
		}
		seen[g] = true
	}
	if len(seen) < 95 {
		t.Errorf("only %d/100 groups sampled", len(seen))
	}
}

func TestExpectedObservation(t *testing.T) {
	m := MustNew(PaperConfig())
	center := geom.Pt(500, 500)
	mu := m.ExpectedObservation(center)
	if len(mu) != 100 {
		t.Fatalf("len(mu) = %d", len(mu))
	}
	// Total expected degree ≈ node density × πR² = 0.03 × π·2500 ≈ 235.6.
	var total float64
	for _, v := range mu {
		if v < 0 {
			t.Fatal("negative expected count")
		}
		total += v
	}
	want := 0.03 * math.Pi * m.Range() * m.Range()
	if math.Abs(total-want)/want > 0.03 {
		t.Errorf("expected degree at center = %v, want ≈ %v", total, want)
	}
	if got := m.ExpectedDegree(center); math.Abs(got-total) > 1e-9 {
		t.Errorf("ExpectedDegree = %v, sum = %v", got, total)
	}
	// Nearby groups dominate: group at (450,450) is index 44.
	if mu[44] < mu[0] {
		t.Error("nearby group should have higher expectation than far corner")
	}
	// Into variant must agree.
	dst := make([]float64, 100)
	m.ExpectedObservationInto(dst, center)
	for i := range dst {
		if dst[i] != mu[i] {
			t.Fatal("ExpectedObservationInto disagrees with ExpectedObservation")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	m.ExpectedObservationInto(make([]float64, 3), center)
}

func TestSampleObservationMatchesExpectation(t *testing.T) {
	m := MustNew(PaperConfig())
	r := rng.New(777)
	loc := geom.Pt(500, 500)
	mu := m.ExpectedObservation(loc)
	const trials = 3000
	sums := make([]float64, m.NumGroups())
	for i := 0; i < trials; i++ {
		o := m.SampleObservation(loc, -1, r)
		for g, c := range o {
			sums[g] += float64(c)
		}
	}
	for g := range sums {
		got := sums[g] / trials
		if mu[g] < 0.5 {
			continue // too sparse for a tight check
		}
		se := math.Sqrt(mu[g] / trials)
		if math.Abs(got-mu[g]) > 6*se+0.05 {
			t.Errorf("group %d: mean %v, want %v", g, got, mu[g])
		}
	}
}

func TestSampleObservationSelfExclusion(t *testing.T) {
	// With group size 1 and self = that group, a sensor can never observe
	// a neighbor from its own group.
	cfg := PaperConfig()
	cfg.GroupSize = 1
	m := MustNew(cfg)
	r := rng.New(5)
	loc := m.DeploymentPoint(7)
	for i := 0; i < 200; i++ {
		o := m.SampleObservation(loc, 7, r)
		if o[7] != 0 {
			t.Fatal("self-exclusion violated")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	m.SampleObservationInto(make([]int, 2), loc, 0, r)
}

func TestDeploymentPointsCopy(t *testing.T) {
	m := MustNew(PaperConfig())
	pts := m.DeploymentPoints()
	pts[0] = geom.Pt(-1, -1)
	if m.DeploymentPoint(0) == geom.Pt(-1, -1) {
		t.Error("DeploymentPoints leaks internal state")
	}
}

func TestGMatchesGExactThroughModel(t *testing.T) {
	m := MustNew(PaperConfig())
	probe := geom.Pt(333, 481)
	for _, g := range []int{0, 33, 44, 55, 99} {
		lo := m.G(g, probe)
		ex := m.GExact(g, probe)
		if math.Abs(lo-ex) > 1e-4 {
			t.Errorf("group %d: table %v vs exact %v", g, lo, ex)
		}
	}
}
