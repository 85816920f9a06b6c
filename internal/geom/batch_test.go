package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Edge cases of the distance metrics: the degenerate inputs that sit
// exactly on the case boundaries of the geometry — one-point segments,
// zero-area rectangles, coincident-focus ellipses.

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestSegMaxDistDegenerateSegment(t *testing.T) {
	p, r := Pt(1, 2), Pt(7, -3)
	for _, a := range []Point{Pt(0, 0), Pt(1, 2), Pt(-4.5, 11), Pt(7, -3)} {
		got := SegMaxDist(p, a, a, r)
		want := TransDist(p, a, r)
		if !bitsEq(got, want) {
			t.Errorf("SegMaxDist(p, %v, %v, r) = %v, want TransDist %v", a, a, got, want)
		}
	}
}

func TestZeroAreaRectDistances(t *testing.T) {
	q := Pt(3, 4)
	r := Rect{Lo: q, Hi: q} // a single point
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(0, 0), Dist(Pt(0, 0), q)},
		{Pt(3, 4), 0},
		{Pt(3, -4), Dist(Pt(3, -4), q)},
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); !bitsEq(got, c.want) {
			t.Errorf("MinDist(%v, point-rect) = %v, want %v", c.p, got, c.want)
		}
		if got := r.MaxDist(c.p); !bitsEq(got, c.want) {
			t.Errorf("MaxDist(%v, point-rect) = %v, want %v", c.p, got, c.want)
		}
		if got := r.MinMaxDist(c.p); !bitsEq(got, c.want) {
			t.Errorf("MinMaxDist(%v, point-rect) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCoincidentFocusEllipse(t *testing.T) {
	c := Pt(2, -1)
	e := Ellipse{F1: c, F2: c, Major: 6} // a circle of radius 3
	if !e.Valid() {
		t.Fatal("coincident-focus ellipse with positive major axis must be valid")
	}
	if got := e.SemiMajor(); got != 3 {
		t.Errorf("SemiMajor = %v, want 3", got)
	}
	if got := e.SemiMinor(); got != 3 {
		t.Errorf("SemiMinor = %v, want 3 (circle)", got)
	}
	if got, want := e.Area(), math.Pi*9; math.Abs(got-want) > 1e-12*want {
		t.Errorf("Area = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		p  Point
		in bool
	}{
		{c, true},               // center
		{Pt(5, -1), true},       // on the boundary
		{Pt(2, 2), true},        // boundary along the other axis
		{Pt(5.001, -1), false},  // just outside
		{Pt(-1.001, -1), false}, // just outside on the far side
	} {
		if got := e.Contains(tc.p); got != tc.in {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.in)
		}
	}
	// The frame of a coincident-focus family: no rotation, zero focal
	// distance — normalization must reduce to the plain circle test.
	fr := NewEllipseFrame(c, c)
	if fr.c != 0 || fr.cosT != 1 || fr.sinT != 0 {
		t.Errorf("NewEllipseFrame(c, c) = %+v, want identity frame", fr)
	}
	// The degenerate transitive screen: with p == r the Chebyshev screen
	// must equal the single-focus rectangle gap.
	m := RectOf(Pt(4, 1), Pt(6, 5))
	if got, want := MinTransDistCheb(c, m, c), m.MinDistCheb(c); !bitsEq(got, want) {
		t.Errorf("MinTransDistCheb(c, m, c) = %v, want MinDistCheb %v", got, want)
	}
}

// hypotRef returns sqrt(dx²+dy²) to 300 bits.
func hypotRef(dx, dy float64) *big.Float {
	x := new(big.Float).SetPrec(300).SetFloat64(dx)
	y := new(big.Float).SetPrec(300).SetFloat64(dy)
	x.Mul(x, x)
	y.Mul(y, y)
	return x.Add(x, y).Sqrt(x)
}

// randLeg returns a random float64 of either sign whose exponent is
// spread over [-scale, scale].
func randLeg(rng *rand.Rand, scale int) float64 {
	v := math.Ldexp(1+rng.Float64(), rng.Intn(2*scale+1)-scale)
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestHypotErrorBound pins the two properties of math.Hypot that the
// exactness contract of batch.go uses, against a big.Float reference:
// (H1) the hypot is never below its larger leg, and (H2) its relative
// error is at most 4u = 2^-51 whenever the exact result is normal. It
// also logs how often the hypot misses correct rounding, which the
// contract does not assume.
func TestHypotErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	maxRel, missed, n := 0.0, 0, 0
	maxULP := int64(0)
	for i := range 200000 {
		var dx, dy float64
		switch i % 4 {
		case 0: // map-scale coordinates, as the queries see
			dx, dy = (rng.Float64()-0.5)*2000, (rng.Float64()-0.5)*2000
		case 1: // legs of different magnitudes
			dx, dy = randLeg(rng, 30), randLeg(rng, 30)
		case 2: // the whole exponent range
			dx, dy = randLeg(rng, 1070), randLeg(rng, 1070)
		default: // nearly equal legs
			dx = randLeg(rng, 10)
			dy = dx * (1 + (rng.Float64()-0.5)*1e-6)
		}
		h := math.Hypot(dx, dy)
		if h < max(math.Abs(dx), math.Abs(dy)) {
			t.Fatalf("Hypot(%g, %g) = %g is below its larger leg", dx, dy, h)
		}
		ref := hypotRef(dx, dy)
		if ref.Cmp(big.NewFloat(0x1p-1022)) < 0 || math.IsInf(h, 1) {
			continue // (H2) covers normal results only
		}
		n++
		if r, _ := ref.Float64(); r != h {
			missed++
			d := int64(math.Float64bits(h)) - int64(math.Float64bits(r))
			maxULP = max(maxULP, d, -d)
		}
		diff := new(big.Float).SetPrec(300).SetFloat64(h)
		diff.Sub(diff, ref).Abs(diff)
		rel, _ := diff.Quo(diff, ref).Float64()
		maxRel = max(maxRel, rel)
		if rel > 0x1p-51 {
			t.Fatalf("Hypot(%g, %g) = %g: relative error %g exceeds 4u", dx, dy, h, rel)
		}
	}
	t.Logf("%d normal results: max relative error %.3gu; %.1f%% not correctly rounded, by up to %d ulp",
		n, maxRel/0x1p-53, 100*float64(missed)/float64(n), maxULP)
}

// TestHypotCmpMatchesHypot checks that HypotCmp returns the outcome of
// computing math.Hypot and comparing, for bounds inside the squared
// screen's band, just outside it, and far away, and for legs and bounds
// whose squares overflow or underflow.
func TestHypotCmpMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	want := func(dx, dy, b float64) int {
		switch h := math.Hypot(dx, dy); {
		case h < b:
			return -1
		case h > b:
			return 1
		}
		return 0
	}
	for i := range 400000 {
		var dx, dy float64
		switch i % 5 {
		case 0:
			dx, dy = (rng.Float64()-0.5)*2000, (rng.Float64()-0.5)*2000
		case 1:
			dx, dy = randLeg(rng, 40), randLeg(rng, 40)
		case 2: // squares that underflow to subnormals
			dx, dy = math.Ldexp(randLeg(rng, 8), -535), math.Ldexp(randLeg(rng, 8), -535)
		case 3: // squares that overflow
			dx, dy = math.Ldexp(randLeg(rng, 8), 510), math.Ldexp(randLeg(rng, 8), 510)
		default:
			dx, dy = randLeg(rng, 1070), randLeg(rng, 1070)
		}
		if i%7 == 0 {
			dy = 0
		}
		h := math.Hypot(dx, dy)
		bounds := []float64{
			h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)),
			h * (1 + 4e-10), h * (1 - 4e-10), h * (1 + 6e-10), h * (1 - 6e-10),
			h * (1 + (rng.Float64()-0.5)*1e-8), h * (1 + (rng.Float64()-0.5)*1e-15),
			randLeg(rng, 1070), math.Abs(randLeg(rng, 40)),
			0, 0x1p-500, 0x1p500, math.Inf(1),
		}
		for _, b := range bounds {
			b = math.Abs(b)
			if got, w := HypotCmp(dx, dy, b), want(dx, dy, b); got != w {
				t.Fatalf("HypotCmp(%g, %g, %g) = %d, hypot %g compares %d", dx, dy, b, got, h, w)
			}
		}
	}
	if HypotCmp(0, 0, 0) != 0 || HypotCmp(0, 0, 1) != -1 || HypotCmp(3, 4, 5) != 0 {
		t.Fatal("HypotCmp on exact small cases")
	}
}

// BenchmarkMinMaxDistBelow measures the face-property bound update of
// an NN search's internal node visit, MinMaxDistBelow over child
// rectangles, with the outcome mix the paper-default queries show: 60%
// rejected by the Chebyshev screen, 20% passing it with both legs at or
// past the bound, 15% with one leg below the bound and 5% with both.
func BenchmarkMinMaxDistBelow(b *testing.B) {
	const n = 1000
	rng := rand.New(rand.NewSource(3))
	rects := make([]Rect, n)
	bounds := make([]float64, n)
	p := Pt(500, 500)
	for i := range rects {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*60, rng.Float64()*60
		r := RectOf(Pt(x, y), Pt(x+w, y+h))
		rects[i] = r
		// MinMaxDist is the shorter leg; MaxDist bounds the longer one.
		switch z, k := r.MinMaxDist(p), i%20; {
		case k < 12:
			bounds[i] = r.MinDistCheb(p) * 0.9
		case k < 16:
			bounds[i] = z * 0.98
		case k < 19:
			bounds[i] = z * 1.001
		default:
			bounds[i] = r.MaxDist(p) * 1.1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0.0
	for i := range b.N {
		j := i % n
		if z, ok := rects[j].MinMaxDistBelow(p, bounds[j]); ok {
			sink += z
		}
	}
	if sink < 0 {
		b.Fatal("unreachable; keeps the loop live")
	}
}

// screenInputs are the adversarial finite values of the integer-order
// property test: both zeros, the subnormal and normal extremes, ±1 and
// ±MaxFloat64, so that differences underflow, cancel to ±0 and overflow
// to ±Inf.
var screenInputs = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074), 0x1p-1022, -0x1p-1022,
	1, -1, 1 + 0x1p-52, 3.5, -3.5,
	math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
}

// TestIntegerOrderKernelsMatchBuiltins: Gap is bit-identical to the
// builtin max(lo-q, 0, q-hi) for every finite lo, hi and q — lo > hi, q
// on a boundary, ±0, subnormals and ±MaxFloat64 included — and Max and
// Min are bit-identical to the builtin max and min on non-negative
// operands, among them the outputs of Abs, Gap and Hypot (contract case
// 4 of batch.go).
func TestIntegerOrderKernelsMatchBuiltins(t *testing.T) {
	vals := append([]float64(nil), screenInputs...)
	rng := rand.New(rand.NewSource(23))
	for range 48 {
		vals = append(vals, randLeg(rng, 1023), randLeg(rng, 4), float64(rng.Intn(7)-3))
	}
	for _, lo := range vals {
		for _, hi := range vals {
			for _, q := range vals {
				got, want := Gap(lo, hi, q), max(lo-q, 0, q-hi)
				if !bitsEq(got, want) {
					t.Fatalf("Gap(%g, %g, %g) = %g (%#x), builtin max %g (%#x)",
						lo, hi, q, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	nonNeg := []float64{math.Inf(1)}
	for i, a := range vals {
		b := vals[(i*7+3)%len(vals)]
		nonNeg = append(nonNeg, math.Abs(a), Gap(a, b, 0), Gap(b, a, 1), math.Hypot(a, b))
	}
	for _, a := range nonNeg {
		for _, b := range nonNeg {
			if got, want := Max(a, b), max(a, b); !bitsEq(got, want) {
				t.Fatalf("Max(%g, %g) = %g, builtin %g", a, b, got, want)
			}
			if got, want := Min(a, b), min(a, b); !bitsEq(got, want) {
				t.Fatalf("Min(%g, %g) = %g, builtin %g", a, b, got, want)
			}
		}
	}
}

// BenchmarkRectScreen measures the clamped-gap screen of the searches'
// prunes (nnSearch.pruned, knnSearch.pruned and rangeSearch.visit's child
// test): Max of the two axis Gaps against a bound, over a fixed SoA set
// of 1024 rectangles shaped like rtree.Flat entries — leaf-sized MBRs
// with every eighth one node-sized, over a 1000-unit square. One op
// screens the whole set from one of four query points.
func BenchmarkRectScreen(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(5))
	minX, minY := make([]float64, n), make([]float64, n)
	maxX, maxY := make([]float64, n), make([]float64, n)
	for i := range n {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := rng.Float64()*60, rng.Float64()*60
		if i%8 == 0 {
			w, h = w*6, h*6
		}
		minX[i], minY[i], maxX[i], maxY[i] = x, y, x+w, y+h
	}
	qs := [...]Point{{500, 500}, {120, 880}, {930, 40}, {10, 10}}
	b.ReportAllocs()
	b.ResetTimer()
	kept := 0
	for i := range b.N {
		q := qs[i%len(qs)]
		minY, maxX, maxY := minY[:len(minX)], maxX[:len(minX)], maxY[:len(minX)]
		for e := range minX {
			if Max(Gap(minX[e], maxX[e], q.X), Gap(minY[e], maxY[e], q.Y)) <= 150 {
				kept++
			}
		}
	}
	if kept == 0 {
		b.Fatal("the screen kept no rectangle")
	}
}
