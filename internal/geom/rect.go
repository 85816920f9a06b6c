package geom

import "math"

// Rect is an axis-aligned rectangle (a minimal bounding rectangle in R-tree
// terms), defined by its lower-left and upper-right corners. A Rect with
// Lo == Hi is a single point and is valid.
type Rect struct {
	Lo, Hi Point
}

// RectOf returns the canonical Rect covering the two corner points in any
// order.
func RectOf(a, b Point) Rect {
	return Rect{
		Lo: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Hi: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions to its argument.
func EmptyRect() Rect {
	return Rect{
		Lo: Point{math.Inf(1), math.Inf(1)},
		Hi: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r contains no points (as produced by EmptyRect).
func (r Rect) IsEmpty() bool { return r.Lo.X > r.Hi.X || r.Lo.Y > r.Hi.Y }

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// Area returns the area of r; zero for degenerate rectangles.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return r.Lo.X <= p.X && p.X <= r.Hi.X && r.Lo.Y <= p.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Intersects reports whether r and s share at least one point (boundary
// touching counts).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Lo.X <= s.Hi.X && s.Lo.X <= r.Hi.X && r.Lo.Y <= s.Hi.Y && s.Lo.Y <= r.Hi.Y
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Lo: Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

// Extend returns the smallest rectangle covering r and the point p.
func (r Rect) Extend(p Point) Rect {
	return r.Union(Rect{Lo: p, Hi: p})
}

// Vertices returns the four corners of r in counterclockwise order starting
// at the lower-left corner.
func (r Rect) Vertices() [4]Point {
	return [4]Point{
		{r.Lo.X, r.Lo.Y},
		{r.Hi.X, r.Lo.Y},
		{r.Hi.X, r.Hi.Y},
		{r.Lo.X, r.Hi.Y},
	}
}

// Sides returns the four sides of r as corner pairs, counterclockwise:
// bottom, right, top, left.
func (r Rect) Sides() [4][2]Point {
	v := r.Vertices()
	return [4][2]Point{
		{v[0], v[1]},
		{v[1], v[2]},
		{v[2], v[3]},
		{v[3], v[0]},
	}
}

// MinDist returns the minimum Euclidean distance from p to any point of the
// solid rectangle r; zero when p is inside r. This is the classic R-tree
// MINDIST metric of Roussopoulos et al.
func (r Rect) MinDist(p Point) float64 {
	// Gap orders the clamped differences by their integer bits: two
	// CMOVs, where the builtin float max is a serial MINSD/POR chain with
	// NaN fix-ups and math.Max a function call. For the finite
	// coordinates an indexed rectangle holds all three agree bit for bit
	// (batch.go, contract case 4). This sits on the pruning hot path,
	// once per popped candidate.
	return math.Hypot(Gap(r.Lo.X, r.Hi.X, p.X), Gap(r.Lo.Y, r.Hi.Y, p.Y))
}

// MaxDist returns the maximum Euclidean distance from p to any point of r:
// the distance to the farthest corner.
func (r Rect) MaxDist(p Point) float64 {
	dx := max(math.Abs(p.X-r.Lo.X), math.Abs(p.X-r.Hi.X))
	dy := max(math.Abs(p.Y-r.Lo.Y), math.Abs(p.Y-r.Hi.Y))
	return math.Hypot(dx, dy)
}

// MinMaxDist returns the MINMAXDIST metric of Roussopoulos et al.: the
// smallest upper bound on the distance from p to the nearest data point
// guaranteed (by the MBR face property) to lie in r. For every face of an
// MBR there is at least one data point on it, so the nearest such point is
// no farther than MinMaxDist.
func (r Rect) MinMaxDist(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	// rm[k]: the nearer of the two slab boundaries in dimension k.
	// rM[k]: the farther of the two.
	near := func(lo, hi, c float64) float64 {
		if c <= (lo+hi)/2 {
			return lo
		}
		return hi
	}
	far := func(lo, hi, c float64) float64 {
		if c >= (lo+hi)/2 {
			return lo
		}
		return hi
	}
	rmx := near(r.Lo.X, r.Hi.X, p.X)
	rmy := near(r.Lo.Y, r.Hi.Y, p.Y)
	rMx := far(r.Lo.X, r.Hi.X, p.X)
	rMy := far(r.Lo.Y, r.Hi.Y, p.Y)

	// Clamp one dimension to its near boundary, the other to its far one.
	d1 := math.Hypot(p.X-rmx, p.Y-rMy)
	d2 := math.Hypot(p.X-rMx, p.Y-rmy)
	return math.Min(d1, d2)
}

// IntersectsSegment reports whether the closed segment ab shares at least
// one point with the solid rectangle r.
func (r Rect) IntersectsSegment(a, b Point) bool {
	if r.IsEmpty() {
		return false
	}
	if r.Contains(a) || r.Contains(b) {
		return true
	}
	for _, s := range r.Sides() {
		if SegmentsIntersect(a, b, s[0], s[1]) {
			return true
		}
	}
	return false
}

// ClosestPoint returns the point of the solid rectangle r closest to p
// (p itself when p is inside r).
func (r Rect) ClosestPoint(p Point) Point {
	x := math.Min(math.Max(p.X, r.Lo.X), r.Hi.X)
	y := math.Min(math.Max(p.Y, r.Lo.Y), r.Hi.Y)
	return Point{x, y}
}
