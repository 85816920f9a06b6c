// Package geom provides the planar geometry substrate used by the TNN
// reproduction: points, rectangles (MBRs), segments, circles and ellipses,
// together with the distance metrics the paper defines — MinDist,
// MinTransDist, MaxDist over a segment, MinMaxTransDist — and the exact
// circle–rectangle and ellipse–rectangle overlap areas that drive the
// approximate-NN pruning heuristics.
//
// All coordinates are float64 in an arbitrary planar coordinate system;
// distances are Euclidean.
package geom

import "math"

// Eps is the tolerance used for degenerate-geometry decisions (collinearity,
// on-boundary tests). Coordinates in the reproduction span up to ~10^6, so
// 1e-9 relative work is comfortably inside float64 precision.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Finite reports whether v is neither NaN nor infinite.
func Finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Finite reports whether both coordinates are finite.
func (p Point) Finite() bool { return Finite(p.X) && Finite(p.Y) }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// DistSq returns the squared Euclidean distance between a and b.
func DistSq(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// TransDist returns the transitive distance dis(p,s) + dis(s,r): the length
// of the two-leg trip from p via s to r. It is the quantity a TNN query
// minimizes over (s, r) pairs.
func TransDist(p, s, r Point) float64 { return Dist(p, s) + Dist(s, r) }

// Lerp returns the point a + t·(b-a).
func Lerp(a, b Point, t float64) Point {
	return Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
}

// orient returns the sign of the signed area of triangle (a, b, c):
// +1 for counterclockwise, -1 for clockwise, 0 for (near-)collinear.
func orient(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	// Scale tolerance with the magnitudes involved so the test behaves for
	// both unit-square and 10^6-sized coordinate systems.
	scale := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) + math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	tol := Eps * (scale*scale + 1)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point c lies on segment ab (inclusive).
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X)-Eps <= c.X && c.X <= math.Max(a.X, b.X)+Eps &&
		math.Min(a.Y, b.Y)-Eps <= c.Y && c.Y <= math.Max(a.Y, b.Y)+Eps
}

// SegmentsIntersect reports whether closed segments ab and cd share at least
// one point, including touching at endpoints and collinear overlap.
func SegmentsIntersect(a, b, c, d Point) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	if o1 == 0 && onSegment(a, b, c) {
		return true
	}
	if o2 == 0 && onSegment(a, b, d) {
		return true
	}
	if o3 == 0 && onSegment(c, d, a) {
		return true
	}
	if o4 == 0 && onSegment(c, d, b) {
		return true
	}
	return false
}

// ReflectAcrossLine returns the mirror image of p across the infinite line
// through a and b. If a == b the line is degenerate and p itself is
// returned.
func ReflectAcrossLine(p, a, b Point) Point {
	ab := b.Sub(a)
	n2 := ab.Dot(ab)
	if n2 == 0 {
		return p
	}
	t := p.Sub(a).Dot(ab) / n2
	foot := a.Add(ab.Scale(t))
	return foot.Add(foot.Sub(p))
}

// SameStrictSide reports whether p and q lie strictly on the same side of
// the infinite line through a and b. Points on the line belong to neither
// side.
func SameStrictSide(p, q, a, b Point) bool {
	op := orient(a, b, p)
	oq := orient(a, b, q)
	return op != 0 && op == oq
}
