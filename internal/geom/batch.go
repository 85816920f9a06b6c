package geom

import "math"

// This file provides the data-oriented distance kernels of the query hot
// path: batched evaluation over parallel coordinate slices (the SoA image
// of an R-tree page, see rtree.Flat) and the Chebyshev screens that let a
// caller skip most hypot/MinTransDist calls without changing any result.
//
// Exactness contract. It rests on two properties of math.Hypot, both
// pinned against a big.Float reference by TestHypotErrorBound — NOT on
// correct rounding, which math.Hypot does not provide (it computes
// max*sqrt(1+(min/max)^2), five roundings, and misses the correctly
// rounded result by up to 2 ulp):
//
//	(H1) Hypot(dx, dy) >= max(|dx|, |dy|): it never rounds below its
//	     larger leg, because every rounding step is monotone and
//	     1+q*q >= 1;
//	(H2) whenever the exact h = sqrt(dx²+dy²) is a normal float64,
//	     |Hypot(dx, dy) - h| <= 4u*h with u = 2^-53 (the five roundings
//	     give 3.25u + O(u²)).
//
// The screens then fall into three kinds:
//
//  1. Every *Batch kernel computes, per element, EXACTLY the float64
//     operations of its scalar twin, in the same order, where a max may
//     take its case-4 form. out[i] is bit-identical to the corresponding
//     scalar call — proven by the batch≡scalar property tests in
//     quick_test.go.
//
//  2. A *Cheb screen is a lower bound on its metric that holds IN
//     FLOATING POINT, not just over the reals: by (H1) hypot is at least
//     its larger leg, |fl(a-b)| equals |fl(b-a)| exactly, and
//     fl(x+y) >= x for y >= 0 because rounding is monotone and x is
//     representable. A screen computed from the SAME subtractions as its
//     metric therefore satisfies screen <= metric for the computed
//     values, so "screen > bound implies metric > bound" is exact:
//     screens may only skip work, never flip a comparison.
//
//  3. When a screen is computed from DIFFERENT operations than the
//     metric it bounds (the transitive-metric case: MinTransDist's
//     segment/reflection/corner arithmetic shares no operands with the
//     rectangle gap legs; the 1-norm accept dx+dy >= hypot; the squared
//     screen of HypotCmp), the few-ulp discrepancy between independently
//     rounded values could flip a near-tie. Those screens compare against
//     bound*ScreenSlack; the slack (~4e6 ulps at any magnitude) dwarfs
//     the handful of roundings on either side, keeping the screen
//     strictly conservative while remaining far tighter than any
//     geometric configuration it needs to separate.
//
//  4. Gap, Max and Min order floats by their bits as integers: two
//     CMOVs, where the builtin float max/min is a serial MINSD/POR chain
//     with NaN fix-ups. Non-negative floats order as their bits do, and
//     negative ones (-0 included) have negative int64 bits, so for
//     non-NaN operands Gap equals the builtin for any signs, and Max and
//     Min for non-negative operands such as the outputs of Abs, Gap and
//     Hypot. Finite coordinates never give NaN, and the system rejects a
//     non-finite query point before a query starts.

// ScreenSlack is the multiplicative guard for screens that are not
// computed from the same operands as the metric they bound (case 3
// above). A screen may reject a candidate only when
// screen > bound*ScreenSlack.
const ScreenSlack = 1 + 1e-9

// Gap returns the clamped gap max(lo-q, 0, q-hi) of the coordinate q to
// the interval [lo, hi], as the int64 maximum of the three values' bits.
// It is bit-identical to the builtin whenever lo-q and q-hi are not NaN
// (contract case 4), which always holds for finite coordinates.
//
//tnn:noalloc
func Gap(lo, hi, q float64) float64 {
	return math.Float64frombits(uint64(max(int64(math.Float64bits(lo-q)), int64(math.Float64bits(q-hi)), 0)))
}

// Max returns max(a, b) as the uint64 maximum of the operands' bits: the
// builtin's result for non-NaN, non-negative operands (contract case 4).
//
//tnn:noalloc
func Max(a, b float64) float64 {
	return math.Float64frombits(max(math.Float64bits(a), math.Float64bits(b)))
}

// Min returns min(a, b) as the uint64 minimum of the operands' bits: the
// builtin's result for non-NaN, non-negative operands (contract case 4).
//
//tnn:noalloc
func Min(a, b float64) float64 {
	return math.Float64frombits(min(math.Float64bits(a), math.Float64bits(b)))
}

// DistCheb returns the Chebyshev distance max(|dx|, |dy|) between a and
// b: a floating-point-exact lower bound on Dist(a, b) computed from the
// same coordinate differences.
//
//tnn:noalloc
func DistCheb(a, b Point) float64 {
	return max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y))
}

// TransDistCheb returns max(DistCheb(p,s), DistCheb(s,r)): a
// floating-point-exact lower bound on TransDist(p, s, r), since the sum
// of the two legs is at least either leg and each hypot is at least its
// larger component.
//
//tnn:noalloc
func TransDistCheb(p, s, r Point) float64 {
	return max(DistCheb(p, s), DistCheb(s, r))
}

// MinDistCheb returns the larger of the two axis gaps between p and the
// rectangle: a floating-point-exact lower bound on MinDist(p) computed
// from the same clamped differences.
//
//tnn:noalloc
func (r Rect) MinDistCheb(p Point) float64 {
	return Max(Gap(r.Lo.X, r.Hi.X, p.X), Gap(r.Lo.Y, r.Hi.Y, p.Y))
}

// MinTransDistCheb returns max over the two foci of the rectangle's
// Chebyshev gap: a lower bound on MinTransDist(p, m, r) — any point s of
// m has dis(p,s)+dis(s,r) >= dis(p,s) >= gap(p) and likewise for r. This
// is the rectangle-vs-ellipse screen: it is positive exactly when m lies
// outside the degenerate ellipse with foci (p, r). The bound is computed
// from different operands than MinTransDist, so callers must apply
// ScreenSlack (contract case 3).
//
//tnn:noalloc
func MinTransDistCheb(p Point, m Rect, r Point) float64 {
	return Max(m.MinDistCheb(p), m.MinDistCheb(r))
}

// HypotCmp compares math.Hypot(dx, dy) with b and returns -1, 0 or +1 as
// the hypot is less than, equal to, or greater than b — the outcome of
// computing the hypot and comparing, usually without the hypot. NaN
// arguments compare as 0; callers pass gaps of validated, finite
// coordinates.
//
// The squared screen decides from s = dx*dx+dy*dy against b*b, a
// contract-case-3 screen. For 2^-500 <= b <= 2^500, b*b is normal, and
// s is within 3u*h² + 2^-1074 of h² at any magnitude (an overflowed s
// means a leg beyond 2^511 > b). So s > b*b*ScreenSlack forces
// h >= b(1+4.9e-10), and by (H2) the computed hypot exceeds b; likewise
// s*ScreenSlack < b*b forces h <= b(1-4.9e-10) and a hypot below b. Only
// the band between the two, or a b outside that range (+Inf included),
// pays the hypot.
//
//tnn:noalloc
func HypotCmp(dx, dy, b float64) int {
	if b >= 0x1p-500 && b <= 0x1p500 {
		s, bb := dx*dx+dy*dy, b*b
		if s > bb*ScreenSlack {
			return 1
		}
		if s*ScreenSlack < bb {
			return -1
		}
	}
	h := math.Hypot(dx, dy)
	if h < b {
		return -1
	}
	if h > b {
		return 1
	}
	return 0
}

// MinMaxDistBelow reports whether MinMaxDist(p) < bound, returning the
// exact metric value when it is. The Chebyshev screen on the two
// candidate legs — computed from the same subtractions the hypots use,
// so exact per contract case 2 — skips both hypot calls for the common
// case of a candidate that cannot improve the bound.
//
//tnn:noalloc
func (r Rect) MinMaxDistBelow(p Point, bound float64) (float64, bool) {
	if r.IsEmpty() {
		return 0, false // MinMaxDist is +Inf; never strictly below
	}
	// Near/far slab boundary selection, exactly as MinMaxDist.
	rmx, rMx := r.Lo.X, r.Hi.X
	if p.X > (r.Lo.X+r.Hi.X)/2 {
		rmx = r.Hi.X
	}
	if p.X >= (r.Lo.X+r.Hi.X)/2 {
		rMx = r.Lo.X
	}
	rmy, rMy := r.Lo.Y, r.Hi.Y
	if p.Y > (r.Lo.Y+r.Hi.Y)/2 {
		rmy = r.Hi.Y
	}
	if p.Y >= (r.Lo.Y+r.Hi.Y)/2 {
		rMy = r.Lo.Y
	}
	l1x, l1y := p.X-rmx, p.Y-rMy
	l2x, l2y := p.X-rMx, p.Y-rmy
	lb := Min(Max(math.Abs(l1x), math.Abs(l1y)), Max(math.Abs(l2x), math.Abs(l2y)))
	if !(lb < bound) {
		return 0, false // MinMaxDist >= lb >= bound
	}
	z := Min(math.Hypot(l1x, l1y), math.Hypot(l2x, l2y))
	return z, z < bound
}

// DistSqBatch writes out[i] = DistSq(p, (xs[i], ys[i])) for every
// element.
//
//tnn:noalloc
func DistSqBatch(p Point, xs, ys, out []float64) {
	xs, ys = xs[:len(out)], ys[:len(out)]
	for i := range out {
		dx, dy := p.X-xs[i], p.Y-ys[i]
		out[i] = dx*dx + dy*dy
	}
}

// DistChebBatch writes out[i] = DistCheb(p, (xs[i], ys[i])) for every
// element: the batched point-distance screen.
//
//tnn:noalloc
func DistChebBatch(p Point, xs, ys, out []float64) {
	xs, ys = xs[:len(out)], ys[:len(out)]
	for i := range out {
		out[i] = Max(math.Abs(p.X-xs[i]), math.Abs(p.Y-ys[i]))
	}
}

// TransDistChebBatch writes out[i] = TransDistCheb(p, (xs[i], ys[i]), r)
// for every element: the batched transitive-metric screen over points.
//
//tnn:noalloc
func TransDistChebBatch(p, r Point, xs, ys, out []float64) {
	xs, ys = xs[:len(out)], ys[:len(out)]
	for i := range out {
		c1 := Max(math.Abs(p.X-xs[i]), math.Abs(p.Y-ys[i]))
		c2 := Max(math.Abs(xs[i]-r.X), math.Abs(ys[i]-r.Y))
		out[i] = Max(c1, c2)
	}
}
