package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -3), Pt(0, 3), 6},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := DistSq(c.a, c.b); !almostEq(got, c.want*c.want, 1e-12) {
			t.Errorf("DistSq(%v,%v) = %v, want %v", c.a, c.b, got, c.want*c.want)
		}
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if Dist(a, b) != Dist(b, a) {
			return false
		}
		// Triangle inequality with generous float tolerance.
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6*(1+Dist(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	a, b := Pt(1, 2), Pt(3, -4)
	if got := a.Add(b); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestTransDist(t *testing.T) {
	p, s, r := Pt(0, 0), Pt(3, 4), Pt(3, 8)
	if got := TransDist(p, s, r); !almostEq(got, 9, 1e-12) {
		t.Errorf("TransDist = %v, want 9", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v", got)
	}
	if got := Lerp(a, b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp t=.5 = %v", got)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		a, b, c, d Point
		want       bool
		name       string
	}{
		{Pt(0, 0), Pt(4, 4), Pt(0, 4), Pt(4, 0), true, "X crossing"},
		{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3), false, "collinear disjoint"},
		{Pt(0, 0), Pt(2, 2), Pt(1, 1), Pt(3, 3), true, "collinear overlap"},
		{Pt(0, 0), Pt(1, 0), Pt(1, 0), Pt(2, 5), true, "touch at endpoint"},
		{Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1), false, "parallel"},
		{Pt(0, 0), Pt(4, 0), Pt(2, 0), Pt(2, 3), true, "T junction"},
		{Pt(0, 0), Pt(4, 0), Pt(5, -1), Pt(5, 1), false, "beyond end"},
		{Pt(0, 0), Pt(0, 0), Pt(0, 0), Pt(1, 1), true, "degenerate point on segment"},
		{Pt(5, 5), Pt(5, 5), Pt(0, 0), Pt(1, 1), false, "degenerate point off segment"},
	}
	for _, c := range cases {
		if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
			t.Errorf("%s: SegmentsIntersect = %v, want %v", c.name, got, c.want)
		}
		// Symmetry in the two segments.
		if got := SegmentsIntersect(c.c, c.d, c.a, c.b); got != c.want {
			t.Errorf("%s (swapped): SegmentsIntersect = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReflectAcrossLine(t *testing.T) {
	// Reflect across the X axis.
	got := ReflectAcrossLine(Pt(3, 4), Pt(0, 0), Pt(1, 0))
	if !almostEq(got.X, 3, 1e-12) || !almostEq(got.Y, -4, 1e-12) {
		t.Errorf("reflect across X axis = %v", got)
	}
	// Reflect across the diagonal y=x swaps coordinates.
	got = ReflectAcrossLine(Pt(2, 5), Pt(0, 0), Pt(1, 1))
	if !almostEq(got.X, 5, 1e-9) || !almostEq(got.Y, 2, 1e-9) {
		t.Errorf("reflect across diagonal = %v", got)
	}
	// Degenerate line returns the point unchanged.
	got = ReflectAcrossLine(Pt(2, 5), Pt(1, 1), Pt(1, 1))
	if got != Pt(2, 5) {
		t.Errorf("degenerate reflect = %v", got)
	}
}

func TestReflectInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		a := Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		b := Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		if a == b {
			continue
		}
		q := ReflectAcrossLine(ReflectAcrossLine(p, a, b), a, b)
		if Dist(p, q) > 1e-6 {
			t.Fatalf("reflection not involutive: %v -> %v", p, q)
		}
		// Reflection preserves distance to points on the line.
		r := ReflectAcrossLine(p, a, b)
		if !almostEq(Dist(p, a), Dist(r, a), 1e-9) || !almostEq(Dist(p, b), Dist(r, b), 1e-9) {
			t.Fatalf("reflection does not preserve line-point distance")
		}
	}
}

func TestSameStrictSide(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	if !SameStrictSide(Pt(1, 1), Pt(9, 5), a, b) {
		t.Error("both above should be same side")
	}
	if SameStrictSide(Pt(1, 1), Pt(9, -5), a, b) {
		t.Error("opposite sides should not be same side")
	}
	if SameStrictSide(Pt(5, 0), Pt(9, 5), a, b) {
		t.Error("point on line is on neither side")
	}
}
