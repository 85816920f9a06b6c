package rtree

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestNodeImageMatchesPacker checks the pointer image Nodes rebuilds from
// Flat against the tree the packer built, captured before Build released
// it: node for node the same ID, depth, MBR bits, children in order and
// points in order, and the same parent and subtree bounds.
func TestNodeImageMatchesPacker(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, pk := range allPackings() {
		for _, n := range []int{0, 1, 2, 6, 7, 50, 500} {
			pts := randPoints(rng, n, 1000)
			tr, packed := build(pts, Config{LeafCap: 6, NodeCap: 3, Packing: pk})
			if tr.NodeImageBuilt() {
				t.Fatalf("%v n=%d: node image resident after Build", pk, n)
			}
			got := tr.Nodes()
			if !tr.NodeImageBuilt() {
				t.Fatalf("%v n=%d: Nodes did not report the image built", pk, n)
			}
			if len(got) != len(packed) || tr.NumNodes() != len(packed) {
				t.Fatalf("%v n=%d: %d rebuilt nodes (NumNodes %d), packer built %d",
					pk, n, len(got), tr.NumNodes(), len(packed))
			}
			if tr.Root() != got[0] {
				t.Fatalf("%v n=%d: Root is not Nodes()[0]", pk, n)
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
					t.Fatalf("%v n=%d node %d: %s %v, packer %v", pk, n, id, what, g, w)
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
