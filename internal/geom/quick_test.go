package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// This file holds testing/quick property tests over the geometric
// primitives: every property is an algebraic fact the query algorithms
// rely on for correctness.

// mkRect builds a canonical rectangle from four arbitrary floats, folding
// NaN/Inf inputs to finite values.
func mkRect(a, b, c, d float64) Rect {
	f := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1000)
	}
	return RectOf(Pt(f(a), f(b)), Pt(f(c), f(d)))
}

func mkPt(x, y float64) Point {
	f := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1000)
	}
	return Pt(f(x), f(y))
}

func TestQuickDistanceOrdering(t *testing.T) {
	// MinDist ≤ MinMaxDist ≤ MaxDist for every point/rectangle pair.
	f := func(px, py, a, b, c, d float64) bool {
		p := mkPt(px, py)
		r := mkRect(a, b, c, d)
		lo, mid, hi := r.MinDist(p), r.MinMaxDist(p), r.MaxDist(p)
		return lo <= mid+1e-9 && mid <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContains(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		r1 := mkRect(a, b, c, d)
		r2 := mkRect(e, g, h, i)
		u := r1.Union(r2)
		return u.ContainsRect(r1) && u.ContainsRect(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinTransDistLowerBounds(t *testing.T) {
	// MinTransDist dominates both obvious lower bounds: the straight-line
	// distance dis(p,r) and MinDist(p,M) + MinDist(r,M).
	f := func(px, py, rx, ry, a, b, c, d float64) bool {
		p, r := mkPt(px, py), mkPt(rx, ry)
		m := mkRect(a, b, c, d)
		v := MinTransDist(p, m, r)
		if v < Dist(p, r)-1e-9 {
			return false
		}
		return v >= m.MinDist(p)+m.MinDist(r)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTransDistSandwich(t *testing.T) {
	// MinTransDist ≤ transitive distance via the rectangle center ≤
	// p-to-farthest-corner + farthest-corner-to-r (a crude upper bound).
	f := func(px, py, rx, ry, a, b, c, d float64) bool {
		p, r := mkPt(px, py), mkPt(rx, ry)
		m := mkRect(a, b, c, d)
		via := TransDist(p, m.Center(), r)
		return MinTransDist(p, m, r) <= via+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapMonotoneInRadius(t *testing.T) {
	// Growing the circle can only grow the overlap.
	f := func(cx, cy, r1, r2, a, b, c, d float64) bool {
		center := mkPt(cx, cy)
		m := mkRect(a, b, c, d)
		lo := math.Min(math.Abs(math.Mod(r1, 500)), math.Abs(math.Mod(r2, 500)))
		hi := math.Max(math.Abs(math.Mod(r1, 500)), math.Abs(math.Mod(r2, 500)))
		small := CircleRectOverlap(Circle{Center: center, R: lo}, m)
		big := CircleRectOverlap(Circle{Center: center, R: hi}, m)
		return small <= big+1e-6*(1+big)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEllipseOverlapBounded(t *testing.T) {
	f := func(ax, ay, bx, by, extra, a, b, c, d float64) bool {
		f1, f2 := mkPt(ax, ay), mkPt(bx, by)
		e := Ellipse{F1: f1, F2: f2, Major: Dist(f1, f2) + math.Abs(math.Mod(extra, 500))}
		m := mkRect(a, b, c, d)
		v := EllipseRectOverlap(e, m)
		return v >= -1e-9 && v <= e.Area()+1e-6*(1+e.Area()) && v <= m.Area()+1e-6*(1+m.Area())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickReflectPreservesDistanceToLine(t *testing.T) {
	f := func(px, py, ax, ay, bx, by float64) bool {
		p := mkPt(px, py)
		a, b := mkPt(ax, ay), mkPt(bx, by)
		if a == b {
			return true
		}
		q := ReflectAcrossLine(p, a, b)
		// Both have the same distance to the line through a,b.
		num := math.Abs(b.Sub(a).Cross(p.Sub(a)))
		num2 := math.Abs(b.Sub(a).Cross(q.Sub(a)))
		return math.Abs(num-num2) <= 1e-6*(1+num)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSegMaxDistSymmetry(t *testing.T) {
	// MaxDist is symmetric in the segment endpoints.
	f := func(px, py, ax, ay, bx, by, rx, ry float64) bool {
		p, r := mkPt(px, py), mkPt(rx, ry)
		a, b := mkPt(ax, ay), mkPt(bx, by)
		return SegMaxDist(p, a, b, r) == SegMaxDist(p, b, a, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// ---- batch ≡ scalar: the exactness contract of batch.go, case 1 ----
//
// Every *Batch kernel must produce, per element, the bit-identical
// float64 its scalar twin produces. The helpers fold arbitrary slices
// into equal-length finite blocks so testing/quick can drive the
// kernels with random block lengths.

// mkBlock folds two arbitrary slices into equal-length finite
// coordinate blocks.
func mkBlock(xs, ys []float64) ([]float64, []float64) {
	n := min(len(xs), len(ys))
	ox, oy := make([]float64, n), make([]float64, n)
	for i := range n {
		ox[i], oy[i] = mkPt(xs[i], ys[i]).X, mkPt(xs[i], ys[i]).Y
	}
	return ox, oy
}

func TestQuickBatchPointKernelsEqualScalar(t *testing.T) {
	f := func(px, py, rx, ry float64, axs, ays []float64) bool {
		p, r := mkPt(px, py), mkPt(rx, ry)
		xs, ys := mkBlock(axs, ays)
		n := len(xs)
		distSq := make([]float64, n)
		cheb := make([]float64, n)
		transCheb := make([]float64, n)
		DistSqBatch(p, xs, ys, distSq)
		DistChebBatch(p, xs, ys, cheb)
		TransDistChebBatch(p, r, xs, ys, transCheb)
		for i := range n {
			s := Pt(xs[i], ys[i])
			if !bitsEq(distSq[i], DistSq(p, s)) ||
				!bitsEq(cheb[i], DistCheb(p, s)) ||
				!bitsEq(transCheb[i], TransDistCheb(p, s, r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinMaxDistBelowMatchesMinMaxDist(t *testing.T) {
	// MinMaxDistBelow(p, bound) must agree with the unscreened metric:
	// ok exactly when MinMaxDist < bound, and then with the identical
	// value — the screen may only skip hypots, never change the answer.
	// Besides a random bound, the bounds at and around the metric itself
	// probe the squared screen's band and exact ties.
	f := func(px, py, a, b, c, d, bnd float64) bool {
		p := mkPt(px, py)
		m := mkRect(a, b, c, d)
		full := m.MinMaxDist(p)
		for _, bound := range []float64{
			math.Abs(math.Mod(bnd, 2000)), full,
			math.Nextafter(full, 0), math.Nextafter(full, math.Inf(1)),
			full * (1 - 4e-10), full * (1 + 4e-10),
		} {
			z, ok := m.MinMaxDistBelow(p, bound)
			if ok != (full < bound) || ok && !bitsEq(z, full) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickChebScreensAreLowerBounds(t *testing.T) {
	// Contract case 2: same-operand screens hold in floating point with
	// no slack at all.
	f := func(px, py, sx, sy, rx, ry, a, b, c, d float64) bool {
		p, s, r := mkPt(px, py), mkPt(sx, sy), mkPt(rx, ry)
		m := mkRect(a, b, c, d)
		return DistCheb(p, s) <= Dist(p, s) &&
			TransDistCheb(p, s, r) <= TransDist(p, s, r) &&
			m.MinDistCheb(p) <= m.MinDist(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSlackedTransScreenSound(t *testing.T) {
	// Contract case 3: the different-operand transitive screen never
	// exceeds the slacked metric, so "screen > bound*ScreenSlack" can
	// only reject candidates whose true MinTransDist exceeds bound.
	f := func(px, py, rx, ry, a, b, c, d float64) bool {
		p, r := mkPt(px, py), mkPt(rx, ry)
		m := mkRect(a, b, c, d)
		return MinTransDistCheb(p, m, r) <= MinTransDist(p, m, r)*ScreenSlack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickOneNormAcceptSound(t *testing.T) {
	// The 1-norm accept screen of the pruning loops: for clamped gaps
	// dx, dy >= 0, (dx+dy)*ScreenSlack <= b guarantees hypot(dx,dy) <= b
	// in floating point — accepting via the screen can never admit a
	// candidate the exact comparison would reject.
	f := func(x, y, bnd float64) bool {
		dx, dy := math.Abs(mkPt(x, y).X), math.Abs(mkPt(x, y).Y)
		b := math.Abs(math.Mod(bnd, 3000))
		if (dx+dy)*ScreenSlack > b {
			return true // screen did not accept; nothing to prove
		}
		return math.Hypot(dx, dy) <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
