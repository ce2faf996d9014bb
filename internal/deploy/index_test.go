package deploy

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// indexTestConfigs covers the three layouts at different densities.
func indexTestConfigs() map[string]Config {
	grid := PaperConfig()
	hex := PaperConfig()
	hex.Layout = LayoutHex
	random := PaperConfig()
	random.Layout = LayoutRandom
	random.RandomSeed = 99
	small := Config{
		Field:   geom.NewRect(geom.Pt(0, 0), geom.Pt(300, 300)),
		GroupsX: 2, GroupsY: 2, GroupSize: 40,
		Sigma: 40, Range: 60, Layout: LayoutGrid,
	}
	return map[string]Config{"grid": grid, "hex": hex, "random": random, "tiny": small}
}

// probeLocations exercises the index at interior points, field edges and
// corners, points outside the field, and points straddling the z = MaxZ
// cutoff of specific groups.
func probeLocations(m *Model, r *rng.Rand) []geom.Point {
	f := m.Field()
	pts := []geom.Point{
		f.Center(),
		f.Min, f.Max,
		geom.Pt(f.Min.X, f.Max.Y), geom.Pt(f.Max.X, f.Min.Y),
		geom.Pt(f.Min.X, f.Center().Y),                         // edge midpoint
		geom.Pt(f.Center().X, f.Max.Y),                         // edge midpoint
		geom.Pt(f.Min.X-2*m.Range(), f.Min.Y-2*m.Range()),      // outside
		geom.Pt(f.Max.X+m.GTable().MaxZ(), f.Center().Y),       // far outside
		m.DeploymentPoint(0),                                   // exactly on a point
		m.DeploymentPoint(0).Add(geom.V(m.GTable().MaxZ(), 0)), // on the cutoff
	}
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Pt(
			r.Uniform(f.Min.X-50, f.Max.X+50),
			r.Uniform(f.Min.Y-50, f.Max.Y+50),
		))
	}
	return pts
}

// The full-scan oracles: the pre-index implementations of the Model's
// location-dependent methods, visiting all n groups in ascending order.
// The indexed production paths must match them bit for bit — values and
// the RNG stream consumed.

func scanExpectedObservationInto(m *Model, dst []float64, loc geom.Point) {
	mm, maxZ := float64(m.cfg.GroupSize), m.gTable.MaxZ()
	for i, dp := range m.points {
		z := loc.Dist(dp)
		if z >= maxZ {
			dst[i] = 0
			continue
		}
		dst[i] = mm * m.gTable.Eval(z)
	}
}

func scanSampleObservationInto(m *Model, dst []int, loc geom.Point, self int, r *rng.Rand) {
	maxZ := m.gTable.MaxZ()
	for i, dp := range m.points {
		z := loc.Dist(dp)
		if z >= maxZ {
			dst[i] = 0
			continue
		}
		trials := m.cfg.GroupSize
		if i == self {
			trials--
		}
		dst[i] = r.Binomial(trials, m.gTable.Eval(z))
	}
}

func scanGMuInto(m *Model, g, mu []float64, loc geom.Point) {
	mm := float64(m.cfg.GroupSize)
	for i, dp := range m.points {
		gi := m.gTable.Eval(loc.Dist(dp))
		g[i] = gi
		mu[i] = mm * gi
	}
}

func scanExpectedDegree(m *Model, loc geom.Point) float64 {
	var sum float64
	mm := float64(m.cfg.GroupSize)
	for i := range m.points {
		sum += mm * m.G(i, loc)
	}
	return sum
}

func TestNearGroupsIntoSupersetAndSorted(t *testing.T) {
	for name, cfg := range indexTestConfigs() {
		m := MustNew(cfg)
		r := rng.New(7)
		probes := append(probeLocations(m, r),
			geom.Pt(1e30, m.Field().Center().Y), geom.Pt(-1e30, 1e30))
		radii := []float64{0, 25, m.Range(), m.GTable().MaxZ(), 1e30, math.Inf(1)}
		for _, radius := range radii {
			for _, p := range probes {
				got := m.NearGroupsInto(nil, p, radius)
				if !slices.IsSorted(got) {
					t.Fatalf("%s: NearGroupsInto(%v, %g) not sorted: %v", name, p, radius, got)
				}
				seen := make(map[int32]bool, len(got))
				for _, i := range got {
					if seen[i] {
						t.Fatalf("%s: duplicate group %d in result", name, i)
					}
					seen[i] = true
				}
				// Superset: every group truly within radius must be present.
				for i := 0; i < m.NumGroups(); i++ {
					if p.Dist(m.DeploymentPoint(i)) <= radius && !seen[int32(i)] {
						t.Fatalf("%s: group %d within %g of %v missing from NearGroupsInto",
							name, i, radius, p)
					}
				}
			}
		}
		// A radius covering everything returns every group, from anywhere.
		for _, p := range []geom.Point{m.Field().Center(), geom.Pt(1e30, 0)} {
			if got := m.NearGroupsInto(nil, p, math.Inf(1)); len(got) != m.NumGroups() {
				t.Fatalf("%s: NearGroupsInto(%v, +Inf) returned %d of %d groups", name, p, len(got), m.NumGroups())
			}
		}
		if got := m.NearGroupsInto(nil, m.Field().Center(), 1e30); len(got) != m.NumGroups() {
			t.Fatalf("%s: NearGroupsInto(center, 1e30) returned %d of %d groups", name, len(got), m.NumGroups())
		}
	}
}

func TestIndexedExpectedObservationBitIdentical(t *testing.T) {
	for name, cfg := range indexTestConfigs() {
		m := MustNew(cfg)
		r := rng.New(11)
		a := make([]float64, m.NumGroups())
		b := make([]float64, m.NumGroups())
		for _, p := range probeLocations(m, r) {
			m.ExpectedObservationInto(a, p)
			scanExpectedObservationInto(m, b, p)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: µ_%d at %v: indexed %v != scan %v", name, i, p, a[i], b[i])
				}
			}
			if d1, d2 := m.ExpectedDegree(p), scanExpectedDegree(m, p); d1 != d2 {
				t.Fatalf("%s: ExpectedDegree at %v: indexed %v != scan %v", name, p, d1, d2)
			}
		}
	}
}

func TestIndexedGMuIntoBitIdentical(t *testing.T) {
	for name, cfg := range indexTestConfigs() {
		m := MustNew(cfg)
		r := rng.New(13)
		n := m.NumGroups()
		g1, mu1 := make([]float64, n), make([]float64, n)
		g2, mu2 := make([]float64, n), make([]float64, n)
		for _, p := range probeLocations(m, r) {
			m.GMuInto(g1, mu1, p)
			scanGMuInto(m, g2, mu2, p)
			for i := 0; i < n; i++ {
				if g1[i] != g2[i] || mu1[i] != mu2[i] {
					t.Fatalf("%s: GMuInto group %d at %v: (%v,%v) != (%v,%v)",
						name, i, p, g1[i], mu1[i], g2[i], mu2[i])
				}
			}
		}
	}
}

// TestIndexedSampleObservationBitIdentical checks both the sampled counts
// and the RNG stream: the indexed path must consume random variates for
// exactly the same groups in exactly the same order as the full scan, or
// every downstream Monte-Carlo result would silently change.
func TestIndexedSampleObservationBitIdentical(t *testing.T) {
	for name, cfg := range indexTestConfigs() {
		m := MustNew(cfg)
		n := m.NumGroups()
		a, b := make([]int, n), make([]int, n)
		probes := probeLocations(m, rng.New(17))
		for pi, p := range probes {
			r1 := rng.New(uint64(1000 + pi))
			r2 := rng.New(uint64(1000 + pi))
			self := pi % n
			m.SampleObservationInto(a, p, self, r1)
			scanSampleObservationInto(m, b, p, self, r2)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: o_%d at %v: indexed %d != scan %d", name, i, p, a[i], b[i])
				}
			}
			if v1, v2 := r1.Uint64(), r2.Uint64(); v1 != v2 {
				t.Fatalf("%s: RNG streams diverged after sampling at %v", name, p)
			}
		}
	}
}

// TestIndexedQueriesConcurrent exercises the Model's internal scratch
// pool from many goroutines under the race detector.
func TestIndexedQueriesConcurrent(t *testing.T) {
	m := MustNew(PaperConfig())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w))
			mu := make([]float64, m.NumGroups())
			want := make([]float64, m.NumGroups())
			o := make([]int, m.NumGroups())
			for i := 0; i < 200; i++ {
				p := geom.Pt(r.Uniform(-100, 1100), r.Uniform(-100, 1100))
				m.ExpectedObservationInto(mu, p)
				scanExpectedObservationInto(m, want, p)
				for j := range mu {
					if mu[j] != want[j] {
						t.Errorf("worker %d: µ_%d mismatch at %v", w, j, p)
						return
					}
				}
				m.SampleObservationInto(o, p, i%m.NumGroups(), r)
			}
		}(w)
	}
	wg.Wait()
}

func TestLogEval2MatchesDirectLogs(t *testing.T) {
	gt := NewGTable(50, 50, DefaultOmega)
	maxZ := gt.MaxZ()
	// The companion interpolates ln(clamp(Eval)) between nodes uniform in
	// z². Wherever g carries likelihood mass (g ≥ 1e-6) its error against
	// the directly computed logs must be far below anything that could
	// move a likelihood maximizer. In the extreme tail — where the linear
	// g-table plunges to the 1e-9 clamp and ln g has near-infinite
	// curvature — a larger error is tolerated: scores there are pinned
	// near the o·ln(eps) penalty and the region decides nothing.
	var worstBody, worstTail, worst1G float64
	for i := 0; i <= 20000; i++ {
		z := maxZ * float64(i) / 20000 * 0.999999
		g := gt.Eval(z)
		gc := math.Max(math.Min(g, 1-LogClampEps), LogClampEps)
		lg, l1g := gt.LogEval2(z * z)
		errG := math.Abs(lg - math.Log(gc))
		if g >= 1e-6 {
			worstBody = math.Max(worstBody, errG)
		} else {
			worstTail = math.Max(worstTail, errG)
		}
		worst1G = math.Max(worst1G, math.Abs(l1g-math.Log1p(-gc)))
	}
	if worstBody > 1e-3 {
		t.Errorf("worst |LogEval2 − ln g| where g ≥ 1e-6 = %g, want < 1e-3", worstBody)
	}
	if worstTail > 0.1 {
		t.Errorf("worst |LogEval2 − ln g| in the clamp tail = %g, want < 0.1", worstTail)
	}
	if worst1G > 1e-3 {
		t.Errorf("worst |LogEval2 − ln(1−g)| = %g, want < 1e-3", worst1G)
	}
}

func TestLogEval2BeyondCutoff(t *testing.T) {
	gt := NewGTable(50, 50, DefaultOmega)
	lg, l1g := gt.LogEval2(gt.MaxZ2())
	if lg != gt.LnEps() || l1g != 0 {
		t.Errorf("at the cutoff: (%v, %v), want (ln eps = %v, 0)", lg, l1g, gt.LnEps())
	}
	lg, l1g = gt.LogEval2(gt.MaxZ2() * 4)
	if lg != gt.LnEps() || l1g != 0 {
		t.Errorf("beyond the cutoff: (%v, %v), want (ln eps, 0)", lg, l1g)
	}
	if want := math.Log(LogClampEps); gt.LnEps() != want {
		t.Errorf("LnEps = %v, want %v", gt.LnEps(), want)
	}
}

// TestLogTableViewMatchesLogEval2 pins the contract the localization
// inner loop relies on: interpolating through the raw view with
// LogEval2's arithmetic is bit-identical to calling LogEval2.
func TestLogTableViewMatchesLogEval2(t *testing.T) {
	gt := NewGTable(50, 50, DefaultOmega)
	v := gt.LogTable()
	r := rng.New(3)
	for i := 0; i < 5000; i++ {
		z2 := r.Uniform(0, v.MaxZ2*1.2)
		var lg, l1g float64
		if z2 >= v.MaxZ2 {
			lg, l1g = v.LnEps, 0
		} else {
			u := z2 * v.InvStep
			k := int(u)
			if k >= len(v.Logs)-1 {
				k = len(v.Logs) - 2
			}
			f := u - float64(k)
			lo, hi := v.Logs[k], v.Logs[k+1]
			lg = lo[0] + (hi[0]-lo[0])*f
			l1g = lo[1] + (hi[1]-lo[1])*f
		}
		wg, w1g := gt.LogEval2(z2)
		if lg != wg || l1g != w1g {
			t.Fatalf("view eval at z2=%v: (%v,%v) != LogEval2 (%v,%v)", z2, lg, l1g, wg, w1g)
		}
	}
}
