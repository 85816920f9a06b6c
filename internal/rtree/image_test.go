package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tnnbcast/internal/geom"
)

// TestNodeImageMatchesPacker checks the pointer image Nodes rebuilds from
// Build's Flat against the tree the reference pointer-tree packer
// (packRef) builds: node for node the same ID, depth, MBR bits, children
// in order and points in order, and the same parent and subtree bounds.
// Uniform points check the layout; tie-heavy grids check that the
// permutation sorts break ties as the reference's sort.Slice calls do.
func TestNodeImageMatchesPacker(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, pk := range allPackings() {
		for _, n := range []int{0, 1, 2, 6, 7, 50, 500} {
			checkNodeImage(t, fmt.Sprintf("%v n=%d", pk, n), randPoints(rng, n, 1000), Config{LeafCap: 6, NodeCap: 3, Packing: pk})
		}
		for _, in := range tieHeavyInputs() {
			in.cfg.Packing = pk
			checkNodeImage(t, fmt.Sprintf("%v %s", pk, in.name), in.pts, in.cfg)
		}
	}
}

// tieHeavyInput is a dataset on a small integer grid, so that many points
// share a coordinate or coincide, with the capacities to pack it at.
type tieHeavyInput struct {
	name string
	pts  []geom.Point
	cfg  Config
}

// tieHeavyInputs returns grids of 2×2, 7×7 and 40×40 cells holding up to
// 15,210 points, each at three capacity pairs.
func tieHeavyInputs() []tieHeavyInput {
	rng := rand.New(rand.NewSource(45))
	var ins []tieHeavyInput
	for _, g := range []struct{ cells, n int }{{2, 60}, {7, 700}, {40, 15210}} {
		pts := make([]geom.Point, g.n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(g.cells)), float64(rng.Intn(g.cells)))
		}
		for _, c := range [][2]int{{6, 3}, {3, 2}, {25, 12}} {
			ins = append(ins, tieHeavyInput{
				name: fmt.Sprintf("grid %d×%d n=%d caps %v", g.cells, g.cells, g.n, c),
				pts:  pts,
				cfg:  Config{LeafCap: c[0], NodeCap: c[1]},
			})
		}
	}
	return ins
}

func checkNodeImage(t *testing.T, name string, pts []geom.Point, cfg Config) {
	t.Helper()
	tr := Build(pts, cfg)
	ref, packed := packRef(pts, cfg)
	if tr.Height != ref.Height {
		t.Fatalf("%s: height %d, packer %d", name, tr.Height, ref.Height)
	}
	if tr.NodeImageBuilt() {
		t.Fatalf("%s: node image resident after Build", name)
	}
	got := tr.Nodes()
	if !tr.NodeImageBuilt() {
		t.Fatalf("%s: Nodes did not report the image built", name)
	}
	if len(got) != len(packed) || tr.NumNodes() != len(packed) {
		t.Fatalf("%s: %d rebuilt nodes (NumNodes %d), packer built %d",
			name, len(got), tr.NumNodes(), len(packed))
	}
	if tr.Root() != got[0] {
		t.Fatalf("%s: Root is not Nodes()[0]", name)
	}
	subEnd := make([]int, len(packed))
	for id := len(packed) - 1; id >= 0; id-- {
		subEnd[id] = id + 1
		if c := packed[id].Children; len(c) > 0 {
			subEnd[id] = subEnd[c[len(c)-1].ID]
		}
	}
	parent := make([]int, len(packed))
	parent[0] = -1
	for _, p := range packed {
		for _, c := range p.Children {
			parent[c.ID] = p.ID
		}
	}
	for id, want := range packed {
		nd := got[id]
		where := func(what string, g, w any) {
			t.Helper()
			t.Fatalf("%s node %d: %s %v, packer %v", name, id, what, g, w)
		}
		if nd.ID != want.ID || nd.ID != id {
			where("ID", nd.ID, want.ID)
		}
		if nd.Depth != want.Depth {
			where("depth", nd.Depth, want.Depth)
		}
		if !sameRectBits(nd.MBR.Lo.X, nd.MBR.Lo.Y, nd.MBR.Hi.X, nd.MBR.Hi.Y,
			want.MBR.Lo.X, want.MBR.Lo.Y, want.MBR.Hi.X, want.MBR.Hi.Y) {
			where("MBR", nd.MBR, want.MBR)
		}
		if len(nd.Children) != len(want.Children) {
			where("child count", len(nd.Children), len(want.Children))
		}
		for i, c := range want.Children {
			if nd.Children[i].ID != c.ID {
				where("child", nd.Children[i].ID, c.ID)
			}
		}
		if len(nd.Entries) != len(want.Entries) {
			where("entry count", len(nd.Entries), len(want.Entries))
		}
		for i, e := range want.Entries {
			g := nd.Entries[i]
			if g.ID != e.ID || !sameRectBits(g.Point.X, g.Point.Y, 0, 0, e.Point.X, e.Point.Y, 0, 0) {
				where("entry", g, e)
			}
		}
		if tr.Parent(id) != parent[id] {
			where("parent", tr.Parent(id), parent[id])
		}
		if tr.SubtreeEnd(id) != subEnd[id] {
			where("subtree end", tr.SubtreeEnd(id), subEnd[id])
		}
	}
}

func sameRectBits(a0, a1, a2, a3, b0, b1, b2, b3 float64) bool {
	return math.Float64bits(a0) == math.Float64bits(b0) &&
		math.Float64bits(a1) == math.Float64bits(b1) &&
		math.Float64bits(a2) == math.Float64bits(b2) &&
		math.Float64bits(a3) == math.Float64bits(b3)
}

// TestNodeImageConcurrent has many goroutines ask a fresh tree for its
// pointer image at once: every one must get the same image.
func TestNodeImageConcurrent(t *testing.T) {
	tr := Build(randPoints(rand.New(rand.NewSource(44)), 300, 1000), Config{LeafCap: 6, NodeCap: 3})
	roots := make([]*Node, 8)
	var wg sync.WaitGroup
	for g := range roots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			roots[g] = tr.Root()
		}()
	}
	wg.Wait()
	for g, r := range roots {
		if r != roots[0] {
			t.Fatalf("goroutine %d got a second image", g)
		}
	}
}
