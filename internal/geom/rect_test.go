package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randRect(rng *rand.Rand, span float64) Rect {
	a := Pt(rng.Float64()*span, rng.Float64()*span)
	b := Pt(rng.Float64()*span, rng.Float64()*span)
	return RectOf(a, b)
}

func randPointIn(rng *rand.Rand, r Rect) Point {
	return Pt(r.Lo.X+rng.Float64()*r.Width(), r.Lo.Y+rng.Float64()*r.Height())
}

func TestRectOfCanonical(t *testing.T) {
	r := RectOf(Pt(5, 1), Pt(2, 7))
	if r.Lo != Pt(2, 1) || r.Hi != Pt(5, 7) {
		t.Errorf("RectOf not canonical: %+v", r)
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect should be empty")
	}
	if e.Area() != 0 {
		t.Error("empty rect area should be 0")
	}
	r := RectOf(Pt(0, 0), Pt(1, 1))
	if got := e.Union(r); got != r {
		t.Errorf("empty union r = %+v", got)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r union empty = %+v", got)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect intersects nothing")
	}
	if !r.ContainsRect(e) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectBasics(t *testing.T) {
	r := RectOf(Pt(1, 2), Pt(5, 8))
	if r.Width() != 4 || r.Height() != 6 || r.Area() != 24 {
		t.Errorf("dims wrong: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(3, 5) {
		t.Errorf("center = %v", r.Center())
	}
	if !r.Contains(Pt(1, 2)) || !r.Contains(Pt(5, 8)) || !r.Contains(Pt(3, 5)) {
		t.Error("boundary/interior containment failed")
	}
	if r.Contains(Pt(0.999, 5)) || r.Contains(Pt(3, 8.001)) {
		t.Error("outside point contained")
	}
}

func TestRectIntersects(t *testing.T) {
	a := RectOf(Pt(0, 0), Pt(4, 4))
	cases := []struct {
		b    Rect
		want bool
	}{
		{RectOf(Pt(2, 2), Pt(6, 6)), true},
		{RectOf(Pt(4, 4), Pt(6, 6)), true}, // corner touch
		{RectOf(Pt(5, 5), Pt(6, 6)), false},
		{RectOf(Pt(1, 1), Pt(2, 2)), true},  // contained
		{RectOf(Pt(-1, 0), Pt(0, 4)), true}, // edge touch
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d swapped: Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestRectUnionIntersect(t *testing.T) {
	a := RectOf(Pt(0, 0), Pt(4, 4))
	b := RectOf(Pt(2, 1), Pt(6, 3))
	u := a.Union(b)
	if u != RectOf(Pt(0, 0), Pt(6, 4)) {
		t.Errorf("union = %+v", u)
	}
}

func TestRectExtend(t *testing.T) {
	r := EmptyRect().Extend(Pt(3, 4))
	if r.Lo != Pt(3, 4) || r.Hi != Pt(3, 4) {
		t.Errorf("extend empty = %+v", r)
	}
	r = r.Extend(Pt(1, 9))
	if r != RectOf(Pt(1, 4), Pt(3, 9)) {
		t.Errorf("extend = %+v", r)
	}
}

func TestMinDist(t *testing.T) {
	r := RectOf(Pt(2, 2), Pt(6, 4))
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(4, 3), 0},   // inside
		{Pt(2, 2), 0},   // corner
		{Pt(0, 3), 2},   // left
		{Pt(9, 3), 3},   // right
		{Pt(4, 8), 4},   // above
		{Pt(4, -1), 3},  // below
		{Pt(-1, -2), 5}, // diagonal to corner (3-4-5)
		{Pt(9, 8), 5},   // diagonal to corner
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMaxDist(t *testing.T) {
	r := RectOf(Pt(0, 0), Pt(4, 3))
	if got := r.MaxDist(Pt(0, 0)); !almostEq(got, 5, 1e-12) {
		t.Errorf("MaxDist corner = %v", got)
	}
	if got := r.MaxDist(Pt(2, 1.5)); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("MaxDist center = %v", got)
	}
}

// MinMaxDist must lie between MinDist and MaxDist, and the nearest corner
// distance must never be below MinMaxDist's guarantee for point data on
// faces.
func TestMinMaxDistBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		r := randRect(rng, 100)
		p := Pt(rng.Float64()*200-50, rng.Float64()*200-50)
		mind := r.MinDist(p)
		maxd := r.MaxDist(p)
		mmd := r.MinMaxDist(p)
		if mmd < mind-1e-9 || mmd > maxd+1e-9 {
			t.Fatalf("MinMaxDist out of [MinDist,MaxDist]: %v not in [%v,%v] (r=%+v p=%v)",
				mmd, mind, maxd, r, p)
		}
	}
}

// Property: for any point set with MBR r, at least one point must be within
// MinMaxDist of the query (the face property holds when points actually
// touch all four faces).
func TestMinMaxDistFaceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		r := randRect(rng, 50)
		if r.Width() < 1e-6 || r.Height() < 1e-6 {
			continue
		}
		// Construct points touching all four faces.
		pts := []Point{
			{r.Lo.X, r.Lo.Y + rng.Float64()*r.Height()},
			{r.Hi.X, r.Lo.Y + rng.Float64()*r.Height()},
			{r.Lo.X + rng.Float64()*r.Width(), r.Lo.Y},
			{r.Lo.X + rng.Float64()*r.Width(), r.Hi.Y},
		}
		q := Pt(rng.Float64()*100-25, rng.Float64()*100-25)
		mmd := r.MinMaxDist(q)
		best := math.Inf(1)
		for _, p := range pts {
			if d := Dist(q, p); d < best {
				best = d
			}
		}
		if best > mmd+1e-9 {
			t.Fatalf("face property violated: nearest face point %v > MinMaxDist %v", best, mmd)
		}
	}
}

func TestIntersectsSegment(t *testing.T) {
	r := RectOf(Pt(2, 2), Pt(6, 6))
	cases := []struct {
		a, b Point
		want bool
		name string
	}{
		{Pt(0, 0), Pt(8, 8), true, "diagonal through"},
		{Pt(3, 3), Pt(4, 4), true, "fully inside"},
		{Pt(0, 0), Pt(1, 1), false, "fully outside"},
		{Pt(0, 4), Pt(8, 4), true, "horizontal through"},
		{Pt(0, 0), Pt(2, 2), true, "touch corner"},
		{Pt(0, 13), Pt(13, 0), false, "clips past corner"},
		{Pt(1, 0), Pt(1, 8), false, "vertical outside"},
		{Pt(2, 0), Pt(2, 8), true, "vertical along edge"},
	}
	for _, c := range cases {
		if got := r.IntersectsSegment(c.a, c.b); got != c.want {
			t.Errorf("%s: IntersectsSegment = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClosestPoint(t *testing.T) {
	r := RectOf(Pt(0, 0), Pt(4, 4))
	cases := []struct {
		p, want Point
	}{
		{Pt(2, 2), Pt(2, 2)},
		{Pt(-3, 2), Pt(0, 2)},
		{Pt(9, 9), Pt(4, 4)},
		{Pt(2, -5), Pt(2, 0)},
	}
	for _, c := range cases {
		if got := r.ClosestPoint(c.p); got != c.want {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// MinDist must equal distance to the closest point.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		rr := randRect(rng, 40)
		p := Pt(rng.Float64()*80-20, rng.Float64()*80-20)
		if !almostEq(rr.MinDist(p), Dist(p, rr.ClosestPoint(p)), 1e-9) {
			t.Fatalf("MinDist != dist to ClosestPoint for %+v, %v", rr, p)
		}
	}
}

func TestVerticesSidesOrder(t *testing.T) {
	r := RectOf(Pt(0, 0), Pt(2, 1))
	v := r.Vertices()
	want := [4]Point{{0, 0}, {2, 0}, {2, 1}, {0, 1}}
	if v != want {
		t.Errorf("vertices = %v", v)
	}
	s := r.Sides()
	if s[0] != [2]Point{{0, 0}, {2, 0}} || s[2] != [2]Point{{2, 1}, {0, 1}} {
		t.Errorf("sides order wrong: %v", s)
	}
	// Signed area of the vertex loop must be positive (counterclockwise).
	area := 0.0
	for i := range v {
		area += v[i].Cross(v[(i+1)%4])
	}
	if area <= 0 {
		t.Error("vertices not counterclockwise")
	}
}
