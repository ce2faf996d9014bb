package localize

import (
	"math"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/wsn"
)

// testNetwork builds a modest network for beacon-based scheme tests.
func testNetwork(seed uint64) *wsn.Network {
	cfg := deploy.Config{
		Field:     geom.NewRect(geom.Pt(0, 0), geom.Pt(600, 600)),
		GroupsX:   6,
		GroupsY:   6,
		GroupSize: 50,
		Sigma:     50,
		Range:     60,
		Layout:    deploy.LayoutGrid,
	}
	return wsn.Deploy(deploy.MustNew(cfg), rng.New(seed))
}

func meanSchemeError(t *testing.T, net *wsn.Network, s Scheme, trials int, seed uint64) float64 {
	t.Helper()
	r := rng.New(seed)
	var sum float64
	n := 0
	for i := 0; i < trials; i++ {
		id, _ := net.SampleNode(r)
		if net.Node(id).IsBeacon {
			continue
		}
		if !net.Model().Field().Contains(net.Node(id).Pos) {
			continue
		}
		est, err := s.Localize(id)
		if err != nil {
			continue
		}
		sum += Error(est, net.Node(id).Pos)
		n++
	}
	if n < trials/3 {
		t.Fatalf("%s: too few successes (%d/%d)", s.Name(), n, trials)
	}
	return sum / float64(n)
}

func TestMMSEPerfectRanging(t *testing.T) {
	net := testNetwork(6)
	r := rng.New(7)
	bs := SelectBeacons(net, 40, 250, r)
	m := NewMMSE(bs, PerfectRanger())
	if m.Name() != "mmse-multilateration" {
		t.Errorf("Name = %q", m.Name())
	}
	e := meanSchemeError(t, net, m, 50, 8)
	if e > 1 {
		t.Errorf("MMSE with perfect ranging: mean error = %.3f m, want ≈ 0", e)
	}
}

func TestMMSENoisyRangingDegrades(t *testing.T) {
	net := testNetwork(9)
	r := rng.New(10)
	bs := SelectBeacons(net, 40, 250, r)
	noisy := NewMMSE(bs, GaussianRanger(10, rng.New(11)))
	e := meanSchemeError(t, net, noisy, 50, 12)
	if e < 0.5 {
		t.Errorf("noisy MMSE error suspiciously low: %.3f", e)
	}
	if e > 60 {
		t.Errorf("noisy MMSE error too high: %.1f", e)
	}
}

func TestMMSECompromisedBeaconSkewsResult(t *testing.T) {
	// Section 6.3's point: one lying anchor can displace MMSE's estimate.
	net := testNetwork(13)
	r := rng.New(14)
	bs := SelectBeacons(net, 6, 600, r) // few anchors, global coverage
	m := NewMMSE(bs, PerfectRanger())
	id, _ := net.SampleNode(r)
	for net.Node(id).IsBeacon {
		id, _ = net.SampleNode(r)
	}
	before, err := m.Localize(id)
	if err != nil {
		t.Fatal(err)
	}
	bs.Compromise(0, geom.Pt(-5000, -5000))
	after, err := m.Localize(id)
	if err != nil {
		t.Fatal(err)
	}
	if Error(before, after) < 50 {
		t.Errorf("compromised beacon moved estimate only %.1f m", Error(before, after))
	}
	if !net.Node(bs.Beacons()[0].ID).Compromised {
		t.Error("Compromise should mark the node")
	}
}

func TestMultilaterateErrors(t *testing.T) {
	if _, err := Multilaterate(nil, nil); err != ErrUnderdetermined {
		t.Error("empty should be underdetermined")
	}
	refs := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if _, err := Multilaterate(refs, []float64{1, 1}); err != ErrUnderdetermined {
		t.Error("two refs should be underdetermined")
	}
	// Collinear references give a singular system.
	col := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	if _, err := Multilaterate(col, []float64{1, 1, 1}); err != ErrUnderdetermined {
		t.Error("collinear refs should be underdetermined")
	}
	// Exact trilateration.
	tri := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	target := geom.Pt(3, 4)
	d := []float64{target.Dist(tri[0]), target.Dist(tri[1]), target.Dist(tri[2])}
	got, err := Multilaterate(tri, d)
	if err != nil {
		t.Fatal(err)
	}
	if Error(got, target) > 1e-9 {
		t.Errorf("trilateration = %v, want %v", got, target)
	}
}

func TestDVHop(t *testing.T) {
	net := testNetwork(15)
	r := rng.New(16)
	bs := SelectBeacons(net, 12, 60, r) // beacons use normal range; multi-hop
	dv := NewDVHop(net, bs)
	if dv.Name() != "dv-hop" {
		t.Errorf("Name = %q", dv.Name())
	}
	e := meanSchemeError(t, net, dv, 60, 17)
	// DV-Hop errors are a fraction of the range in dense nets; allow a
	// generous bound to keep the test robust.
	if e > 150 {
		t.Errorf("DV-Hop mean error = %.1f m", e)
	}
	// Hop sizes should be positive and on the order of the radio range.
	for j, hs := range dv.hopSize {
		if hs <= 0 || hs > 200 {
			t.Errorf("hopSize[%d] = %v", j, hs)
		}
	}
}

func TestDVHopHopCountsAreMinimal(t *testing.T) {
	net := testNetwork(18)
	r := rng.New(19)
	bs := SelectBeacons(net, 3, 60, r)
	dv := NewDVHop(net, bs)
	// Hop counts must satisfy the triangle property over edges:
	// |h(u) − h(v)| <= 1 for neighbors u, v.
	for j := range dv.hops {
		for u := 0; u < net.Len(); u++ {
			hu := dv.hops[j][u]
			if hu < 0 {
				continue
			}
			for _, v := range net.NeighborsOf(wsn.NodeID(u)) {
				hv := dv.hops[j][v]
				if hv < 0 {
					t.Fatalf("neighbor of reached node unreachable")
				}
				if hv > hu+1 || hu > hv+1 {
					t.Fatalf("hop counts not 1-Lipschitz: %d vs %d", hu, hv)
				}
			}
		}
	}
}

func TestAmorphous(t *testing.T) {
	net := testNetwork(20)
	r := rng.New(21)
	bs := SelectBeacons(net, 12, 60, r)
	density := net.AverageDegree(200, rng.New(22))
	am := NewAmorphous(net, bs, density)
	if am.Name() != "amorphous" {
		t.Errorf("Name = %q", am.Name())
	}
	if hs := am.HopSize(); hs <= 0 || hs > 60 {
		t.Errorf("offline hop size = %v, want (0, R]", hs)
	}
	e := meanSchemeError(t, net, am, 60, 23)
	if e > 150 {
		t.Errorf("Amorphous mean error = %.1f m", e)
	}
}

func TestKleinrockSilvesterHopSize(t *testing.T) {
	// Degenerate density: hop size equals the range.
	if got := KleinrockSilvesterHopSize(60, 0); got != 60 {
		t.Errorf("zero-density hop = %v", got)
	}
	// Increasing density → longer expected hops, approaching R.
	prev := 0.0
	for _, n := range []float64{1, 3, 6, 10, 20} {
		h := KleinrockSilvesterHopSize(60, n)
		if h <= prev {
			t.Errorf("hop size not increasing at n=%v: %v <= %v", n, h, prev)
		}
		if h <= 0 || h > 60 {
			t.Errorf("hop size out of range at n=%v: %v", n, h)
		}
		prev = h
	}
	if prev < 45 {
		t.Errorf("dense-network hop size = %v, want near R", prev)
	}
}

func TestGaussianRanger(t *testing.T) {
	g := GaussianRanger(5, rng.New(31))
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := g(100)
		if v < 0 {
			t.Fatal("ranger returned negative distance")
		}
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if math.Abs(mean-100) > 0.5 {
		t.Errorf("ranger mean = %v", mean)
	}
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(sd-5) > 0.5 {
		t.Errorf("ranger sd = %v", sd)
	}
	// Floor at zero.
	g2 := GaussianRanger(100, rng.New(32))
	for i := 0; i < 1000; i++ {
		if g2(1) < 0 {
			t.Fatal("negative measurement escaped the floor")
		}
	}
}

func TestMinMax(t *testing.T) {
	net := testNetwork(33)
	r := rng.New(34)
	bs := SelectBeacons(net, 40, 250, r)
	mm := NewMinMax(bs, PerfectRanger())
	if mm.Name() != "min-max" {
		t.Errorf("Name = %q", mm.Name())
	}
	e := meanSchemeError(t, net, mm, 50, 35)
	// MinMax is coarser than MMSE but must be far better than guessing.
	if e > 80 {
		t.Errorf("MinMax mean error = %.1f m", e)
	}
	// Sanity: MMSE with the same data should beat MinMax.
	ls := NewMMSE(bs, PerfectRanger())
	if le := meanSchemeError(t, net, ls, 50, 35); le >= e {
		t.Errorf("MMSE (%.2f) should beat MinMax (%.2f)", le, e)
	}
	// No beacons heard.
	empty := SelectBeacons(net, 0, 100, r)
	if _, err := NewMinMax(empty, PerfectRanger()).Localize(0); err != ErrNoObservation {
		t.Errorf("err = %v, want ErrNoObservation", err)
	}
}
