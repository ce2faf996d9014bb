// Package geom provides the small amount of planar geometry the LAD
// reproduction needs: points and vectors, the chord half-angle of
// Theorem 1, and axis-aligned rectangles (for deployment fields and
// spatial hashing).
//
// All coordinates are in meters; the package is unit-agnostic otherwise.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by the vector v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred form for range comparisons in hot
// loops (neighbor discovery over tens of thousands of nodes).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Midpoint returns the point halfway between p and q.
func (p Point) Midpoint(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Vec is a displacement in the plane.
type Vec struct {
	DX, DY float64
}

// V is shorthand for Vec{dx, dy}.
func V(dx, dy float64) Vec { return Vec{DX: dx, DY: dy} }

// Add returns the vector sum v+w.
func (v Vec) Add(w Vec) Vec { return Vec{v.DX + w.DX, v.DY + w.DY} }

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{v.DX * k, v.DY * k} }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Len2 returns the squared length of v.
func (v Vec) Len2() float64 { return v.DX*v.DX + v.DY*v.DY }

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.DX*w.DX + v.DY*w.DY }

// Cross returns the z-component of the 3-D cross product v×w. Its sign
// tells which side of v the vector w lies on.
func (v Vec) Cross(w Vec) float64 { return v.DX*w.DY - v.DY*w.DX }

// Unit returns the unit vector in the direction of v. The zero vector is
// returned unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l == 0 {
		return v
	}
	return Vec{v.DX / l, v.DY / l}
}

// FromPolar returns the vector with the given length and angle (radians,
// counter-clockwise from +x).
func FromPolar(r, theta float64) Vec {
	s, c := math.Sincos(theta)
	return Vec{r * c, r * s}
}

// Rect is an axis-aligned rectangle. Min is the lower-left corner, Max the
// upper-right; a valid Rect has Min.X <= Max.X and Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by any two opposite corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Square returns the axis-aligned square with the given lower-left corner
// and side length.
func Square(min Point, side float64) Rect {
	return Rect{Min: min, Max: Point{min.X + side, min.Y + side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the centroid of r.
func (r Rect) Center() Point { return r.Min.Midpoint(r.Max) }

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// ChordHalfAngle returns, for a disk of radius R centered at distance z
// from the origin, the half-angle subtended at the origin by the portion
// of the circle of radius ell (centered at the origin) that lies inside
// the disk. It evaluates acos((ell² + z² − R²)/(2·ell·z)), clamped to a
// valid domain; this is the arc term of Theorem 1 in the LAD paper.
//
// Degenerate cases: when ell or z is zero the circle is either entirely
// inside (return π) or entirely outside (return 0) the disk.
func ChordHalfAngle(ell, z, r float64) float64 {
	if ell <= 0 || z <= 0 {
		if ell+z <= r { // concentric-ish: the whole circle is inside
			return math.Pi
		}
		if math.Abs(ell-z) >= r {
			return 0
		}
		return math.Pi
	}
	u := (ell*ell + z*z - r*r) / (2 * ell * z)
	return math.Acos(clamp(u, -1, 1))
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
