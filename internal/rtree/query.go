package rtree

import (
	"math"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/heapx"
)

// This file provides the classic in-memory (random-access) query
// algorithms. The broadcast environment cannot use them directly — the
// best-first order backtracks across the linear broadcast — but they serve
// as correctness oracles and as the local join step once candidate objects
// have been downloaded.

// Window returns all entries whose points lie inside the rectangle w
// (boundary inclusive), in unspecified order.
func (t *Tree) Window(w geom.Rect) []Entry {
	var out []Entry
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.MBR.Intersects(w) {
			return
		}
		if n.Leaf() {
			for _, e := range n.Entries {
				if w.Contains(e.Point) {
					out = append(out, e)
				}
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root())
	return out
}

// RangeCircle returns all entries within distance c.R of c.Center
// (boundary inclusive).
func (t *Tree) RangeCircle(c geom.Circle) []Entry {
	var out []Entry
	var walk func(n *Node)
	walk = func(n *Node) {
		if !c.IntersectsRect(n.MBR) {
			return
		}
		if n.Leaf() {
			for _, e := range n.Entries {
				if c.Contains(e.Point) {
					out = append(out, e)
				}
			}
			return
		}
		for _, c2 := range n.Children {
			walk(c2)
		}
	}
	walk(t.Root())
	return out
}

// bfItem is a best-first priority-queue element: either a node or a
// materialized entry.
type bfItem struct {
	dist  float64
	node  *Node
	entry Entry
	leafE bool
}

// bfQueue is a concrete min-heap of bfItems ordered by dist, driven by
// heapx — traversal order is identical to the previous container/heap
// implementation (ties between equal distances resolve the same way) while
// pushes and pops stay allocation-free.
type bfQueue []bfItem

func bfLess(a, b bfItem) bool { return a.dist < b.dist }

func (q *bfQueue) push(it bfItem) { heapx.Push((*[]bfItem)(q), it, bfLess) }
func (q *bfQueue) pop() bfItem    { return heapx.Pop((*[]bfItem)(q), bfLess) }

// NN returns the nearest entry to q using the Best-First algorithm of
// Hjaltason–Samet, together with the number of nodes visited. ok is false
// for an empty tree.
func (t *Tree) NN(q geom.Point) (e Entry, visited int, ok bool) {
	es, visited := t.KNN(q, 1)
	if len(es) == 0 {
		return Entry{}, visited, false
	}
	return es[0], visited, true
}

// KNN returns the k nearest entries to q in ascending distance order,
// and the number of nodes visited.
func (t *Tree) KNN(q geom.Point, k int) ([]Entry, int) {
	if t.Count == 0 || k <= 0 {
		return nil, 0
	}
	root := t.Root()
	pq := bfQueue{{dist: root.MBR.MinDist(q), node: root}}
	var out []Entry
	visited := 0
	for len(pq) > 0 && len(out) < k {
		it := pq.pop()
		if it.leafE {
			out = append(out, it.entry)
			continue
		}
		visited++
		n := it.node
		if n.Leaf() {
			for _, e := range n.Entries {
				pq.push(bfItem{dist: geom.Dist(q, e.Point), entry: e, leafE: true})
			}
			continue
		}
		for _, c := range n.Children {
			pq.push(bfItem{dist: c.MBR.MinDist(q), node: c})
		}
	}
	return out, visited
}

// TransNN returns the entry s minimizing the transitive distance
// dis(p,s) + dis(s,r), using best-first search over MinTransDist. This is
// the in-memory analogue of the Hybrid-NN Case-3 search and is used as its
// oracle in tests.
func (t *Tree) TransNN(p, r geom.Point) (Entry, bool) {
	if t.Count == 0 {
		return Entry{}, false
	}
	root := t.Root()
	pq := bfQueue{{dist: geom.MinTransDist(p, root.MBR, r), node: root}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.leafE {
			return it.entry, true
		}
		n := it.node
		if n.Leaf() {
			for _, e := range n.Entries {
				pq.push(bfItem{dist: geom.TransDist(p, e.Point, r), entry: e, leafE: true})
			}
			continue
		}
		for _, c := range n.Children {
			pq.push(bfItem{dist: geom.MinTransDist(p, c.MBR, r), node: c})
		}
	}
	return Entry{}, false
}

// Validate checks structural invariants and returns the first violation as
// a non-nil error-like string ("" when valid): every node's MBR equals the
// union of its children/entries, capacities are respected, all leaves sit
// at the same depth, and preorder IDs are consistent.
func (t *Tree) Validate() string {
	leafDepth := -1
	var walk func(n *Node) string
	walk = func(n *Node) string {
		if n.Leaf() {
			if t.Count > 0 && len(n.Entries) == 0 {
				return "empty leaf in non-empty tree"
			}
			if len(n.Entries) > t.LeafCap {
				return "leaf over capacity"
			}
			if leafDepth == -1 {
				leafDepth = n.Depth
			} else if n.Depth != leafDepth {
				return "leaves at different depths"
			}
			want := mbrOfEntries(n.Entries)
			if t.Count > 0 && (n.MBR != want) {
				return "leaf MBR mismatch"
			}
			return ""
		}
		if len(n.Children) > t.NodeCap {
			return "node over capacity"
		}
		if len(n.Children) < 1 {
			return "internal node without children"
		}
		want := mbrOfNodes(n.Children)
		if n.MBR != want {
			return "internal MBR mismatch"
		}
		for _, c := range n.Children {
			if !n.MBR.ContainsRect(c.MBR) {
				return "child MBR escapes parent"
			}
			if msg := walk(c); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := walk(t.Root()); msg != "" {
		return msg
	}
	for i, n := range t.Nodes() {
		if n.ID != i {
			return "preorder ID mismatch"
		}
	}
	// Height must match the max depth + 1.
	maxDepth := 0
	for _, n := range t.Nodes() {
		if n.Depth > maxDepth {
			maxDepth = n.Depth
		}
	}
	if t.Height != maxDepth+1 {
		return "height mismatch"
	}
	return ""
}

// BruteNN is the exhaustive nearest neighbor over the tree's points,
// provided for testing.
func (t *Tree) BruteNN(q geom.Point) (Entry, bool) {
	best := Entry{}
	bestD := math.Inf(1)
	found := false
	t.Preorder(func(n *Node) {
		for _, e := range n.Entries {
			if d := geom.Dist(q, e.Point); d < bestD {
				bestD, best, found = d, e, true
			}
		}
	})
	return best, found
}
