package dataset

import (
	"math"
	"testing"

	"tnnbcast/internal/geom"
)

func TestDensityCountMatchesPaper(t *testing.T) {
	// Section 6: densities 10^-7.0 … 10^-4.2 over 39,000² yield these
	// exact dataset sizes.
	want := []int{152, 382, 960, 2411, 6055, 15210, 38206, 95969}
	for i, e := range DensityExponents {
		if got := DensityCount(e, PaperRegion); got != want[i] {
			t.Errorf("DensityCount(%v) = %d, want %d", e, got, want[i])
		}
	}
}

func TestSizeSeries(t *testing.T) {
	s := SizeSeries()
	if len(s) != 15 {
		t.Fatalf("len = %d, want 15", len(s))
	}
	if s[0] != 2000 || s[14] != 30000 {
		t.Errorf("series endpoints %d..%d", s[0], s[14])
	}
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] != 2000 {
			t.Errorf("non-2000 increment at %d", i)
		}
	}
}

func TestUniformProperties(t *testing.T) {
	pts := Uniform(42, 5000, PaperRegion)
	if len(pts) != 5000 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !PaperRegion.Contains(p) {
			t.Fatalf("point %v outside region", p)
		}
	}
	// Determinism.
	again := Uniform(42, 5000, PaperRegion)
	for i := range pts {
		if pts[i] != again[i] {
			t.Fatal("Uniform not deterministic")
		}
	}
	// Different seed differs.
	other := Uniform(43, 5000, PaperRegion)
	same := 0
	for i := range pts {
		if pts[i] == other[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical points across seeds", same)
	}
	// Rough uniformity: each quadrant holds ~25%.
	c := PaperRegion.Center()
	var q [4]int
	for _, p := range pts {
		i := 0
		if p.X > c.X {
			i++
		}
		if p.Y > c.Y {
			i += 2
		}
		q[i]++
	}
	for i, n := range q {
		if n < 1000 || n > 1500 {
			t.Errorf("quadrant %d has %d of 5000 points", i, n)
		}
	}
}

// skewIndex measures non-uniformity: the coefficient of variation of
// per-cell counts over a g×g grid (0 for perfectly even, grows with skew).
func skewIndex(pts []geom.Point, region geom.Rect, g int) float64 {
	counts := make([]float64, g*g)
	for _, p := range pts {
		x := int((p.X - region.Lo.X) / region.Width() * float64(g))
		y := int((p.Y - region.Lo.Y) / region.Height() * float64(g))
		if x >= g {
			x = g - 1
		}
		if y >= g {
			y = g - 1
		}
		counts[y*g+x]++
	}
	mean := float64(len(pts)) / float64(g*g)
	var ss float64
	for _, c := range counts {
		d := c - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(g*g)) / mean
}

func TestClusteredIsSkewed(t *testing.T) {
	uni := Uniform(1, 4000, PaperRegion)
	clu := Clustered(1, 4000, 8, 0.02, PaperRegion)
	for _, p := range clu {
		if !PaperRegion.Contains(p) {
			t.Fatal("clustered point outside region")
		}
	}
	su, sc := skewIndex(uni, PaperRegion, 10), skewIndex(clu, PaperRegion, 10)
	if sc < 3*su {
		t.Errorf("clustered skew %v not clearly above uniform %v", sc, su)
	}
}

func TestCitySubstitute(t *testing.T) {
	city := City(7)
	if len(city) != CitySize {
		t.Fatalf("CITY size %d, want %d", len(city), CitySize)
	}
	for _, p := range city {
		if !PaperRegion.Contains(p) {
			t.Fatal("CITY point outside region")
		}
	}
	// Must be strongly skewed relative to uniform.
	uni := Uniform(7, CitySize, PaperRegion)
	if sc, su := skewIndex(city, PaperRegion, 10), skewIndex(uni, PaperRegion, 10); sc < 3*su {
		t.Errorf("CITY skew %v vs uniform %v — not settlement-like", sc, su)
	}
	// Deterministic.
	again := City(7)
	for i := range city {
		if city[i] != again[i] {
			t.Fatal("City not deterministic")
		}
	}
}

func TestPostSubstitute(t *testing.T) {
	post := Post(11)
	if len(post) != PostSize {
		t.Fatalf("POST size %d, want %d", len(post), PostSize)
	}
	for _, p := range post {
		if !PostRegion.Contains(p) {
			t.Fatal("POST point outside region")
		}
	}
	uni := Uniform(11, PostSize, PostRegion)
	if sp, su := skewIndex(post, PostRegion, 10), skewIndex(uni, PostRegion, 10); sp < 3*su {
		t.Errorf("POST skew %v vs uniform %v — not corridor-like", sp, su)
	}
}

func TestScale(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(500000, 250000), geom.Pt(1000000, 1000000)}
	scaled := Scale(pts, PostRegion, PaperRegion)
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(19500, 9750), geom.Pt(39000, 39000)}
	for i := range want {
		if math.Abs(scaled[i].X-want[i].X) > 1e-6 || math.Abs(scaled[i].Y-want[i].Y) > 1e-6 {
			t.Errorf("scaled[%d] = %v, want %v", i, scaled[i], want[i])
		}
	}
	// Scaling POST into the paper region keeps every point inside.
	post := Scale(Post(3), PostRegion, PaperRegion)
	for _, p := range post {
		if !PaperRegion.Contains(p) {
			t.Fatal("scaled POST point outside target region")
		}
	}
}
