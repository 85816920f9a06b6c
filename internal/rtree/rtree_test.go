package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tnnbcast/internal/geom"
)

func randPoints(rng *rand.Rand, n int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}
	return pts
}

func allPackings() []Packing { return []Packing{STR, HilbertSort, NearestX} }

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pk := range allPackings() {
		for _, n := range []int{0, 1, 2, 3, 7, 50, 500, 3000} {
			pts := randPoints(rng, n, 1000)
			tr := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: pk})
			if msg := tr.Validate(); msg != "" {
				t.Fatalf("%v n=%d: invalid tree: %s", pk, n, msg)
			}
			if tr.Count != n {
				t.Fatalf("%v n=%d: Count = %d", pk, n, tr.Count)
			}
			// Every input point appears exactly once.
			seen := make(map[int]int)
			tr.Preorder(func(nd *Node) {
				for _, e := range nd.Entries {
					seen[e.ID]++
					if e.Point != pts[e.ID] {
						t.Fatalf("%v: entry %d has wrong point", pk, e.ID)
					}
				}
			})
			if len(seen) != n {
				t.Fatalf("%v n=%d: %d distinct IDs", pk, n, len(seen))
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("%v: ID %d appears %d times", pk, id, c)
				}
			}
		}
	}
}

func TestBuildHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Paper reference: ~100,000 points at fanout 3 gives height ≈ 10
	// ("the R-tree for the dataset containing nearly 100,000 points has
	// H = 10 and M = 3").
	pts := randPoints(rng, 96000, 39000)
	tr := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: STR})
	// 96000/6 = 16000 leaves; log3(16000) ≈ 8.8 → height 10-11.
	if tr.Height < 9 || tr.Height > 12 {
		t.Errorf("height = %d, want ≈ 10", tr.Height)
	}
	if msg := tr.Validate(); msg != "" {
		t.Fatalf("invalid: %s", msg)
	}
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for LeafCap=0")
		}
	}()
	Build(nil, Config{LeafCap: 0, NodeCap: 3})
}

func TestBuildPanicsNodeCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for NodeCap=1")
		}
	}()
	Build(nil, Config{LeafCap: 4, NodeCap: 1})
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := Build(nil, Config{LeafCap: 4, NodeCap: 3})
	if got := tr.Window(geom.RectOf(geom.Pt(0, 0), geom.Pt(1, 1))); len(got) != 0 {
		t.Error("window on empty tree")
	}
	if _, _, ok := tr.NN(geom.Pt(0, 0)); ok {
		t.Error("NN on empty tree should report !ok")
	}
	if _, ok := tr.TransNN(geom.Pt(0, 0), geom.Pt(1, 1)); ok {
		t.Error("TransNN on empty tree should report !ok")
	}
}

func TestWindowAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, pk := range allPackings() {
		pts := randPoints(rng, 800, 100)
		tr := Build(pts, Config{LeafCap: 8, NodeCap: 4, Packing: pk})
		for i := 0; i < 50; i++ {
			w := geom.RectOf(
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
				geom.Pt(rng.Float64()*100, rng.Float64()*100),
			)
			got := tr.Window(w)
			var want []int
			for id, p := range pts {
				if w.Contains(p) {
					want = append(want, id)
				}
			}
			gotIDs := make([]int, len(got))
			for j, e := range got {
				gotIDs[j] = e.ID
			}
			sort.Ints(gotIDs)
			sort.Ints(want)
			if len(gotIDs) != len(want) {
				t.Fatalf("%v: window size %d want %d", pk, len(gotIDs), len(want))
			}
			for j := range want {
				if gotIDs[j] != want[j] {
					t.Fatalf("%v: window mismatch", pk)
				}
			}
		}
	}
}

func TestRangeCircleAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 600, 100)
	tr := Build(pts, Config{LeafCap: 8, NodeCap: 4})
	for i := 0; i < 50; i++ {
		c := geom.Circle{
			Center: geom.Pt(rng.Float64()*100, rng.Float64()*100),
			R:      rng.Float64() * 40,
		}
		got := tr.RangeCircle(c)
		want := 0
		for _, p := range pts {
			if c.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("range circle size %d want %d", len(got), want)
		}
		for _, e := range got {
			if !c.Contains(e.Point) {
				t.Fatalf("returned point outside circle")
			}
		}
	}
}

func TestNNAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pk := range allPackings() {
		pts := randPoints(rng, 700, 100)
		tr := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: pk})
		for i := 0; i < 200; i++ {
			q := geom.Pt(rng.Float64()*140-20, rng.Float64()*140-20)
			got, _, ok := tr.NN(q)
			if !ok {
				t.Fatal("NN failed")
			}
			want, _ := tr.BruteNN(q)
			if !almostEq(geom.Dist(q, got.Point), geom.Dist(q, want.Point), 1e-12) {
				t.Fatalf("%v: NN distance %v want %v", pk,
					geom.Dist(q, got.Point), geom.Dist(q, want.Point))
			}
		}
	}
}

func TestKNNOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 300, 100)
	tr := Build(pts, Config{LeafCap: 6, NodeCap: 3})
	q := geom.Pt(50, 50)
	for _, k := range []int{1, 2, 10, 299, 300, 400} {
		got, _ := tr.KNN(q, k)
		wantLen := k
		if wantLen > len(pts) {
			wantLen = len(pts)
		}
		if len(got) != wantLen {
			t.Fatalf("k=%d: got %d entries", k, len(got))
		}
		// Ascending order.
		for i := 1; i < len(got); i++ {
			if geom.Dist(q, got[i].Point) < geom.Dist(q, got[i-1].Point)-1e-12 {
				t.Fatalf("k=%d: results not sorted", k)
			}
		}
		// Matches brute-force top-k set by distance.
		ds := make([]float64, len(pts))
		for i, p := range pts {
			ds[i] = geom.Dist(q, p)
		}
		sort.Float64s(ds)
		for i, e := range got {
			if !almostEq(geom.Dist(q, e.Point), ds[i], 1e-9) {
				t.Fatalf("k=%d: rank %d distance %v want %v", k, i, geom.Dist(q, e.Point), ds[i])
			}
		}
	}
	if got, _ := tr.KNN(q, 0); got != nil {
		t.Error("k=0 should return nil")
	}
}

func TestTransNNAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 500, 100)
	tr := Build(pts, Config{LeafCap: 6, NodeCap: 3})
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		r := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		got, ok := tr.TransNN(p, r)
		if !ok {
			t.Fatal("TransNN failed")
		}
		bestD := math.Inf(1)
		for _, pt := range pts {
			if d := geom.TransDist(p, pt, r); d < bestD {
				bestD = d
			}
		}
		if !almostEq(geom.TransDist(p, got.Point, r), bestD, 1e-9) {
			t.Fatalf("TransNN distance %v want %v", geom.TransDist(p, got.Point, r), bestD)
		}
	}
}

func TestPackingString(t *testing.T) {
	if STR.String() != "STR" || HilbertSort.String() != "Hilbert" || NearestX.String() != "NearestX" {
		t.Error("Packing.String wrong")
	}
	if Packing(42).String() != "Packing(42)" {
		t.Error("unknown packing string")
	}
}

func TestNumLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := randPoints(rng, 100, 10)
	f := Build(pts, Config{LeafCap: 10, NodeCap: 5}).Flat()
	got := 0
	for id := range f.Depth {
		if f.Leaf(int32(id)) {
			got++
		}
	}
	if got != 10 {
		t.Errorf("%d leaves, want 10", got)
	}
}

// TestBuildAllocs bounds Build's allocations by the tree's height: the
// packer allocates per level and per Flat column, never per node or per
// point.
func TestBuildAllocs(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(9)), 15210, 39000)
	for _, pk := range allPackings() {
		cfg := Config{LeafCap: 6, NodeCap: 3, Packing: pk}
		height := Build(pts, cfg).Height
		allocs := testing.AllocsPerRun(5, func() { Build(pts, cfg) })
		if allocs > float64(10*height) {
			t.Errorf("%v: Build makes %.0f allocations at height %d, want at most %d", pk, allocs, height, 10*height)
		}
	}
}

// STR should produce lower-overlap trees than NearestX on uniform data;
// this is a sanity check of packing quality, not a strict guarantee, so it
// uses a fixed seed.
func TestSTRBeatsNearestXOnNNVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 5000, 1000)
	str := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: STR})
	nx := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: NearestX})
	strV, nxV := 0, 0
	for i := 0; i < 200; i++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		_, v1, _ := str.NN(q)
		_, v2, _ := nx.NN(q)
		strV += v1
		nxV += v2
	}
	if strV >= nxV {
		t.Errorf("STR visits %d >= NearestX visits %d on uniform data", strV, nxV)
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
