package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAdaptiveSimpsonPolynomials(t *testing.T) {
	cases := []struct {
		name string
		f    Func1
		a, b float64
		want float64
	}{
		{"constant", func(x float64) float64 { return 3 }, 0, 5, 15},
		{"linear", func(x float64) float64 { return x }, 0, 2, 2},
		{"quadratic", func(x float64) float64 { return x * x }, 0, 3, 9},
		{"cubic", func(x float64) float64 { return x * x * x }, -1, 1, 0},
		{"quartic", func(x float64) float64 { return x * x * x * x }, 0, 1, 0.2},
	}
	for _, c := range cases {
		got := AdaptiveSimpson(c.f, c.a, c.b, 1e-12, 30)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAdaptiveSimpsonTranscendental(t *testing.T) {
	got := AdaptiveSimpson(math.Sin, 0, math.Pi, 1e-12, 40)
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("∫sin over [0,π] = %v, want 2", got)
	}
	got = AdaptiveSimpson(math.Exp, 0, 1, 1e-12, 40)
	if math.Abs(got-(math.E-1)) > 1e-9 {
		t.Errorf("∫exp over [0,1] = %v, want e−1", got)
	}
	// Gaussian integral over wide range ≈ 1.
	f := func(x float64) float64 { return NormalPDF(x, 0, 1) }
	got = AdaptiveSimpson(f, -8, 8, 1e-12, 40)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("∫N(0,1) = %v, want 1", got)
	}
}

func TestAdaptiveSimpsonOrientation(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	fwd := AdaptiveSimpson(f, 0, 2, 1e-10, 30)
	rev := AdaptiveSimpson(f, 2, 0, 1e-10, 30)
	if math.Abs(fwd+rev) > 1e-9 {
		t.Errorf("reversed bounds should negate: %v vs %v", fwd, rev)
	}
	if got := AdaptiveSimpson(f, 1, 1, 1e-10, 30); got != 0 {
		t.Errorf("empty interval = %v, want 0", got)
	}
}

func TestGaussLegendre16(t *testing.T) {
	// Exact for polynomials up to degree 31.
	f := func(x float64) float64 { return math.Pow(x, 9) - 4*math.Pow(x, 5) + x }
	got := GaussLegendre16(f, -2, 3)
	want := AdaptiveSimpson(f, -2, 3, 1e-13, 40)
	if math.Abs(got-want) > 1e-7 {
		t.Errorf("GL16 = %v, Simpson = %v", got, want)
	}
	// Oscillatory integrand: composite rule should converge to Simpson.
	g := func(x float64) float64 { return math.Sin(10 * x) }
	gc := GaussLegendreComposite(g, 0, 3, 8)
	gw := AdaptiveSimpson(g, 0, 3, 1e-13, 40)
	if math.Abs(gc-gw) > 1e-9 {
		t.Errorf("composite GL16 = %v, want %v", gc, gw)
	}
	// n < 1 behaves like n = 1.
	if got, want := GaussLegendreComposite(g, 0, 1, 0), GaussLegendre16(g, 0, 1); got != want {
		t.Errorf("composite n=0: %v, want %v", got, want)
	}
}

func TestIntegratorsAgreeProperty(t *testing.T) {
	// Adaptive Simpson and composite Gauss–Legendre must agree on smooth
	// random cubics over random intervals.
	f := func(c0, c1, c2, c3, a, w float64) bool {
		c0 = math.Mod(c0, 10)
		c1 = math.Mod(c1, 10)
		c2 = math.Mod(c2, 10)
		c3 = math.Mod(c3, 10)
		a = math.Mod(a, 100)
		b := a + math.Abs(math.Mod(w, 50)) + 0.1
		poly := func(x float64) float64 { return c0 + x*(c1+x*(c2+x*c3)) }
		s := AdaptiveSimpson(poly, a, b, 1e-12, 40)
		g := GaussLegendreComposite(poly, a, b, 4)
		scale := math.Max(1, math.Abs(s))
		return math.Abs(s-g)/scale < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
