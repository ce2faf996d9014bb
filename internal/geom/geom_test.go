package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -3), Pt(0, 3), 6},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want, 1e-9) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		m := func(v float64) float64 { return math.Mod(v, 1e9) }
		a, b := Pt(m(ax), m(ay)), Pt(m(bx), m(by))
		return almostEq(a.Dist(b), b.Dist(a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Constrain magnitudes so the float error bound is meaningful.
		scale := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Pt(scale(ax), scale(ay))
		b := Pt(scale(bx), scale(by))
		c := Pt(scale(cx), scale(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecOps(t *testing.T) {
	v := V(3, 4)
	if got := v.Len(); !almostEq(got, 5, 1e-12) {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := v.Len2(); !almostEq(got, 25, 1e-12) {
		t.Errorf("Len2 = %v, want 25", got)
	}
	if got := v.Unit().Len(); !almostEq(got, 1, 1e-12) {
		t.Errorf("Unit().Len() = %v, want 1", got)
	}
	if got := (Vec{}).Unit(); got != (Vec{}) {
		t.Errorf("zero Unit = %v, want zero", got)
	}
	if got := v.Dot(V(-4, 3)); !almostEq(got, 0, 1e-12) {
		t.Errorf("Dot perpendicular = %v, want 0", got)
	}
	if got := V(1, 0).Cross(V(0, 1)); !almostEq(got, 1, 1e-12) {
		t.Errorf("Cross = %v, want 1", got)
	}
	if got := Pt(1, 2).Add(V(2, 3)); got != Pt(3, 5) {
		t.Errorf("Add = %v, want (3,5)", got)
	}
	if got := Pt(3, 5).Sub(Pt(1, 2)); got != V(2, 3) {
		t.Errorf("Sub = %v, want {2 3}", got)
	}
}

func TestFromPolar(t *testing.T) {
	for _, th := range []float64{0, math.Pi / 6, math.Pi / 2, math.Pi, 5} {
		v := FromPolar(2.5, th)
		if !almostEq(v.Len(), 2.5, 1e-12) {
			t.Errorf("FromPolar(2.5,%v).Len() = %v", th, v.Len())
		}
	}
	v := FromPolar(1, math.Pi/2)
	if !almostEq(v.DX, 0, 1e-12) || !almostEq(v.DY, 1, 1e-12) {
		t.Errorf("FromPolar(1, pi/2) = %v", v)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(10, 0), Pt(0, 20))
	if r.Min != Pt(0, 0) || r.Max != Pt(10, 20) {
		t.Fatalf("NewRect normalized = %v", r)
	}
	if got := r.Width(); got != 10 {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); got != 20 {
		t.Errorf("Height = %v", got)
	}
	if got := r.Area(); got != 200 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Center(); got != Pt(5, 10) {
		t.Errorf("Center = %v", got)
	}
	if !r.Contains(Pt(5, 5)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 20)) {
		t.Error("Contains should include interior and edges")
	}
	if r.Contains(Pt(-0.1, 5)) || r.Contains(Pt(5, 20.1)) {
		t.Error("Contains should exclude exterior")
	}
	if got := r.Clamp(Pt(-5, 30)); got != Pt(0, 20) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Pt(5, 5)); got != Pt(5, 5) {
		t.Errorf("Clamp interior = %v", got)
	}
	s := Square(Pt(1, 1), 2)
	if s.Max != Pt(3, 3) {
		t.Errorf("Square = %v", s)
	}
	if !r.Intersects(s) {
		t.Error("expected intersection")
	}
	if r.Intersects(Square(Pt(100, 100), 1)) {
		t.Error("expected no intersection")
	}
}

func TestRectClampProperty(t *testing.T) {
	r := NewRect(Pt(-10, -10), Pt(10, 10))
	f := func(x, y float64) bool {
		x = math.Mod(x, 1e9)
		y = math.Mod(y, 1e9)
		return r.Contains(r.Clamp(Pt(x, y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChordHalfAngle(t *testing.T) {
	// Circle of radius ell entirely inside disk: angle = pi.
	if got := ChordHalfAngle(1, 1, 5); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("inside angle = %v, want pi", got)
	}
	// Entirely outside: angle = 0.
	if got := ChordHalfAngle(1, 10, 2); !almostEq(got, 0, 1e-12) {
		t.Errorf("outside angle = %v, want 0", got)
	}
	// Right-angle construction: ell=3, z=4, R=5 -> cos = (9+16-25)/(24) = 0.
	if got := ChordHalfAngle(3, 4, 5); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("right angle = %v, want pi/2", got)
	}
	// Degenerate ell=0 with z<R: circle is a point inside the disk.
	if got := ChordHalfAngle(0, 1, 5); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("ell=0 inside = %v, want pi", got)
	}
	// Degenerate z=0: disk centered at origin; ell<R fully inside.
	if got := ChordHalfAngle(1, 0, 5); !almostEq(got, math.Pi, 1e-12) {
		t.Errorf("z=0 inside = %v, want pi", got)
	}
	if got := ChordHalfAngle(7, 0, 5); !almostEq(got, 0, 1e-12) {
		t.Errorf("z=0 outside = %v, want 0", got)
	}
}

func TestChordHalfAngleMonotoneInRadius(t *testing.T) {
	// For fixed ell and z, a larger disk should never subtend a smaller arc.
	f := func(ell, z, r float64) bool {
		ell = math.Abs(math.Mod(ell, 100)) + 0.1
		z = math.Abs(math.Mod(z, 100)) + 0.1
		r = math.Abs(math.Mod(r, 100)) + 0.1
		a1 := ChordHalfAngle(ell, z, r)
		a2 := ChordHalfAngle(ell, z, r*1.5)
		return a2 >= a1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point misreported")
	}
	if Pt(math.NaN(), 0).IsFinite() || Pt(0, math.Inf(1)).IsFinite() {
		t.Error("non-finite point misreported")
	}
}
