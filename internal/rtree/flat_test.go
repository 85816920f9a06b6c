package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/heapx"
)

// Differential suite: the queries below are implemented purely over the
// Flat SoA image — no *Node is ever touched — and compared against the
// pointer-tree traversals in query.go on the same datasets. Any drift
// between the two representations (a mis-grouped entry run, a stale MBR
// column, a wrong Key) shows up as a result-set mismatch.

// flatWindow answers Tree.Window over the SoA image alone.
func flatWindow(f *Flat, w geom.Rect) []Entry {
	var out []Entry
	var walk func(id int32)
	walk = func(id int32) {
		if f.Leaf(id) {
			first, end := f.LeafRange(id)
			for i := first; i < end; i++ {
				if w.Contains(geom.Point{X: f.X[i], Y: f.Y[i]}) {
					out = append(out, f.LeafEntry(i))
				}
			}
			return
		}
		first, end := f.EntRange(id)
		for e := first; e < end; e++ {
			if f.EntRect(e).Intersects(w) {
				walk(f.Key[e])
			}
		}
	}
	walk(0)
	return out
}

// flatRangeCircle answers Tree.RangeCircle over the SoA image alone.
func flatRangeCircle(f *Flat, c geom.Circle) []Entry {
	var out []Entry
	var walk func(id int32)
	walk = func(id int32) {
		if f.Leaf(id) {
			first, end := f.LeafRange(id)
			for i := first; i < end; i++ {
				if c.Contains(geom.Point{X: f.X[i], Y: f.Y[i]}) {
					out = append(out, f.LeafEntry(i))
				}
			}
			return
		}
		first, end := f.EntRange(id)
		for e := first; e < end; e++ {
			if c.IntersectsRect(f.EntRect(e)) {
				walk(f.Key[e])
			}
		}
	}
	walk(0)
	return out
}

// flatBFItem mirrors bfItem for the SoA best-first search.
type flatBFItem struct {
	dist  float64
	id    int32
	entry Entry
	leafE bool
}

func flatBFLess(a, b flatBFItem) bool { return a.dist < b.dist }

// flatKNN answers Tree.KNN over the SoA image alone. It pushes children
// and leaf entries in the same order with the same distances through the
// same heap discipline, so ties resolve identically and the result must
// match the pointer-tree search entry-for-entry.
func flatKNN(f *Flat, t *Tree, q geom.Point, k int) ([]Entry, int) {
	if t.Count == 0 || k <= 0 {
		return nil, 0
	}
	pq := []flatBFItem{{dist: f.RootMBR.MinDist(q), id: 0}}
	var out []Entry
	visited := 0
	for len(pq) > 0 && len(out) < k {
		it := heapx.Pop(&pq, flatBFLess)
		if it.leafE {
			out = append(out, it.entry)
			continue
		}
		visited++
		if f.Leaf(it.id) {
			first, end := f.LeafRange(it.id)
			for i := first; i < end; i++ {
				e := f.LeafEntry(i)
				heapx.Push(&pq, flatBFItem{dist: geom.Dist(q, e.Point), entry: e, leafE: true}, flatBFLess)
			}
			continue
		}
		first, end := f.EntRange(it.id)
		for e := first; e < end; e++ {
			heapx.Push(&pq, flatBFItem{dist: f.EntRect(e).MinDist(q), id: f.Key[e]}, flatBFLess)
		}
	}
	return out, visited
}

func sortedIDs(es []Entry) []int {
	ids := make([]int, len(es))
	for i, e := range es {
		ids[i] = e.ID
	}
	sort.Ints(ids)
	return ids
}

func idsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlatMirrorsTree checks the structural correspondence directly:
// every node of the reference packer's pointer tree (packRef) must have
// its children and entries recoverable, in order, from Build's SoA
// arrays, and every column must equal the one packRef converts, on the
// uniform and the tie-heavy inputs. An unknown Packing value packs as STR.
func TestFlatMirrorsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, pk := range append(allPackings(), Packing(3)) {
		for _, n := range []int{0, 1, 2, 6, 7, 50, 500} {
			checkFlatMirror(t, fmt.Sprintf("%v n=%d", pk, n), randPoints(rng, n, 1000), Config{LeafCap: 6, NodeCap: 3, Packing: pk})
		}
		for _, in := range tieHeavyInputs() {
			in.cfg.Packing = pk
			checkFlatMirror(t, fmt.Sprintf("%v %s", pk, in.name), in.pts, in.cfg)
		}
	}
}

func checkFlatMirror(t *testing.T, name string, pts []geom.Point, cfg Config) {
	t.Helper()
	ref, packed := packRef(pts, cfg)
	f := Build(pts, cfg).Flat()
	if len(f.Depth) != len(packed) {
		t.Fatalf("%s: %d Depth entries for %d nodes", name, len(f.Depth), len(packed))
	}
	for _, nd := range packed {
		id := int32(nd.ID)
		if int(f.Depth[id]) != nd.Depth {
			t.Fatalf("%s node %d: Depth %d want %d", name, id, f.Depth[id], nd.Depth)
		}
		if f.Leaf(id) != nd.Leaf() {
			t.Fatalf("%s node %d: Leaf %v want %v", name, id, f.Leaf(id), nd.Leaf())
		}
		if nd.Leaf() {
			first, end := f.LeafRange(id)
			if int(end-first) != len(nd.Entries) {
				t.Fatalf("%s leaf %d: %d flat entries want %d", name, id, end-first, len(nd.Entries))
			}
			for i, e := range nd.Entries {
				if got := f.LeafEntry(first + int32(i)); got != e {
					t.Fatalf("%s leaf %d entry %d: %+v want %+v", name, id, i, got, e)
				}
			}
			continue
		}
		first, end := f.EntRange(id)
		if int(end-first) != len(nd.Children) {
			t.Fatalf("%s node %d: %d flat children want %d", name, id, end-first, len(nd.Children))
		}
		for i, c := range nd.Children {
			e := first + int32(i)
			if f.Key[e] != int32(c.ID) {
				t.Fatalf("%s node %d child %d: Key %d want %d", name, id, i, f.Key[e], c.ID)
			}
			if f.EntRect(e) != c.MBR {
				t.Fatalf("%s node %d child %d: MBR %+v want %+v", name, id, i, f.EntRect(e), c.MBR)
			}
		}
	}
	if !reflect.DeepEqual(f, ref.Flat()) {
		t.Fatalf("%s: Flat columns differ from the reference packer's", name)
	}
}

// TestFlatWindowDifferential compares window queries answered over the
// SoA image against the pointer-tree traversal.
func TestFlatWindowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, pk := range allPackings() {
		for _, n := range []int{1, 5, 37, 300, 2000} {
			pts := randPoints(rng, n, 1000)
			tr := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: pk})
			f := tr.Flat()
			for q := 0; q < 25; q++ {
				a := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				b := geom.Pt(a.X+rng.Float64()*250, a.Y+rng.Float64()*250)
				w := geom.RectOf(a, b)
				want := sortedIDs(tr.Window(w))
				got := sortedIDs(flatWindow(f, w))
				if !idsEqual(got, want) {
					t.Fatalf("%v n=%d window %+v: flat %v want %v", pk, n, w, got, want)
				}
			}
		}
	}
}

// TestFlatRangeCircleDifferential compares range queries answered over
// the SoA image against the pointer-tree traversal.
func TestFlatRangeCircleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, pk := range allPackings() {
		for _, n := range []int{1, 5, 37, 300, 2000} {
			pts := randPoints(rng, n, 1000)
			tr := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: pk})
			f := tr.Flat()
			for q := 0; q < 25; q++ {
				c := geom.Circle{
					Center: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
					R:      rng.Float64() * 200,
				}
				want := sortedIDs(tr.RangeCircle(c))
				got := sortedIDs(flatRangeCircle(f, c))
				if !idsEqual(got, want) {
					t.Fatalf("%v n=%d circle %+v: flat %v want %v", pk, n, c, got, want)
				}
			}
		}
	}
}

// TestFlatKNNDifferential compares best-first (k-)NN answered over the
// SoA image against the pointer-tree search. Because both sides push the
// same items in the same order through the same heap discipline, the
// match is entry-for-entry and visit-for-visit, not just set-equal.
func TestFlatKNNDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, pk := range allPackings() {
		for _, n := range []int{1, 5, 37, 300, 2000} {
			pts := randPoints(rng, n, 1000)
			tr := Build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: pk})
			f := tr.Flat()
			for q := 0; q < 25; q++ {
				p := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
				for _, k := range []int{1, 10} {
					want, wantV := tr.KNN(p, k)
					got, gotV := flatKNN(f, tr, p, k)
					if gotV != wantV {
						t.Fatalf("%v n=%d k=%d q=%v: flat visited %d want %d", pk, n, k, p, gotV, wantV)
					}
					if len(got) != len(want) {
						t.Fatalf("%v n=%d k=%d q=%v: flat %d results want %d", pk, n, k, p, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v n=%d k=%d q=%v result %d: flat %+v want %+v", pk, n, k, p, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestFlatEmptyDataset: the empty tree's Flat image is a single leaf
// root with no entries, and every query over it comes back empty.
func TestFlatEmptyDataset(t *testing.T) {
	for _, pk := range allPackings() {
		tr := Build(nil, Config{LeafCap: 4, NodeCap: 3, Packing: pk})
		f := tr.Flat()
		if f == nil {
			t.Fatalf("%v: empty tree has nil Flat", pk)
		}
		if len(f.Depth) != 1 || !f.Leaf(0) {
			t.Fatalf("%v: empty tree image should be a single leaf root", pk)
		}
		if first, end := f.LeafRange(0); first != end {
			t.Fatalf("%v: empty tree leaf run [%d,%d) not empty", pk, first, end)
		}
		if got := flatWindow(f, geom.RectOf(geom.Pt(0, 0), geom.Pt(1, 1))); len(got) != 0 {
			t.Errorf("%v: window on empty flat image returned %v", pk, got)
		}
		if got := flatRangeCircle(f, geom.Circle{Center: geom.Pt(0, 0), R: 5}); len(got) != 0 {
			t.Errorf("%v: range on empty flat image returned %v", pk, got)
		}
		if got, visited := flatKNN(f, tr, geom.Pt(0, 0), 1); len(got) != 0 || visited != 0 {
			t.Errorf("%v: NN on empty flat image returned %v (visited %d)", pk, got, visited)
		}
	}
}
