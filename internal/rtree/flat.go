package rtree

import "tnnbcast/internal/geom"

// Flat is the structure-of-arrays image of a packed tree, built once at
// Build time and shared by every reader. It is the tree's only resident
// image: the broadcast layouts, the wire encoder and the core search
// loops walk these contiguous slices instead of chasing *Node/Entry
// records, so a node visit is a couple of bounds-checked slice reads over
// cache-dense, pointer-free memory (the GC never scans the coordinate
// arrays).
//
// Indexing scheme, all derived from the preorder (broadcast) order:
//
//   - Per-node arrays (Depth, Parent, SubEnd, EntFirst/EntCount,
//     LeafFirst/LeafCount) are indexed by preorder node ID, matching
//     Tree.Nodes.
//   - Node entries — the child references of internal nodes — live in
//     MinX/MinY/MaxX/MaxY/Key. Node id's children occupy the contiguous
//     run [EntFirst[id], EntFirst[id]+EntCount[id]); Key[e] is the
//     child's preorder ID. Every node except the root is referenced by
//     exactly one entry (RootMBR holds the root's MBR), so the arrays
//     hold len(Nodes)-1 elements and a search can carry a node's entry
//     index alongside its ID to re-read the MBR at pop time without
//     touching the Node.
//   - Leaf entries — the data points — live in X/Y/ID, grouped per leaf
//     in preorder walk order: leaf id's points occupy
//     [LeafFirst[id], LeafFirst[id]+LeafCount[id]), and the whole ID
//     array is the broadcast object order. An internal node's LeafFirst
//     is where its subtree's points begin, so SubtreeIDs is one slice.
//
// A node is a leaf iff EntCount[id] == 0 (internal nodes always have at
// least one child; the empty tree's root is a leaf with LeafCount 0).
type Flat struct {
	Depth     []int32 // per node: depth (root 0)
	Parent    []int32 // per node: parent's preorder ID (-1 for the root)
	SubEnd    []int32 // per node: one past the last preorder ID of its subtree
	EntFirst  []int32 // per node: first index of its child-entry run
	EntCount  []int32 // per node: number of child entries (0 for leaves)
	LeafFirst []int32 // per node: first index of its leaf-entry run (internal: of its subtree's)
	LeafCount []int32 // per node: number of leaf entries (0 for internal)

	// Node entries (child references), grouped per parent.
	MinX, MinY, MaxX, MaxY []float64
	Key                    []int32 // child node's preorder ID

	// Leaf entries (data points), grouped per leaf, preorder walk order.
	X, Y []float64
	ID   []int32

	RootMBR geom.Rect // the root's MBR (empty for the empty tree)
}

// Flat returns the tree's SoA image. It is built eagerly by Build and
// immutable thereafter; callers may share it freely.
//
//tnn:noalloc
func (t *Tree) Flat() *Flat { return t.flat }

// EntRect materializes the MBR of node entry e as a geom.Rect. The four
// loads are from contiguous parallel arrays; the Rect itself is a stack
// value.
//
//tnn:noalloc
func (f *Flat) EntRect(e int32) geom.Rect {
	return geom.Rect{
		Lo: geom.Point{X: f.MinX[e], Y: f.MinY[e]},
		Hi: geom.Point{X: f.MaxX[e], Y: f.MaxY[e]},
	}
}

// EntRange returns node id's child-entry run [first, end).
//
//tnn:noalloc
func (f *Flat) EntRange(id int32) (first, end int32) {
	first = f.EntFirst[id]
	return first, first + f.EntCount[id]
}

// LeafRange returns node id's leaf-entry run [first, end).
//
//tnn:noalloc
func (f *Flat) LeafRange(id int32) (first, end int32) {
	first = f.LeafFirst[id]
	return first, first + f.LeafCount[id]
}

// LeafEntry materializes leaf entry i as an Entry, for cold paths and
// oracles that still traffic in the pointer-tree types.
//
//tnn:noalloc
func (f *Flat) LeafEntry(i int32) Entry {
	return Entry{Point: geom.Point{X: f.X[i], Y: f.Y[i]}, ID: int(f.ID[i])}
}

// Entries materializes every data point in preorder leaf-walk order, the
// broadcast object order.
func (f *Flat) Entries() []Entry {
	out := make([]Entry, len(f.ID))
	for i := range out {
		out[i] = f.LeafEntry(int32(i))
	}
	return out
}

// SubtreeIDs returns the object IDs under node id, in leaf-walk order:
// a run of f.ID, shared, that callers must not modify.
func (f *Flat) SubtreeIDs(id int32) []int32 {
	end := int32(len(f.ID))
	if next := f.SubEnd[id]; int(next) < len(f.LeafFirst) {
		end = f.LeafFirst[next]
	}
	return f.ID[f.LeafFirst[id]:end:end]
}

// Leaf reports whether node id is a leaf.
//
//tnn:noalloc
func (f *Flat) Leaf(id int32) bool { return f.EntCount[id] == 0 }

// nodeImage builds the pointer image from the SoA arrays: every node's
// MBR comes from the entry that references it (the root's from RootMBR),
// its children in entry order and its points in leaf-walk order. Nodes,
// child lists and points each live in one allocation.
func (f *Flat) nodeImage() []*Node {
	nodes := make([]Node, len(f.Depth))
	ptrs := make([]*Node, len(nodes))
	kids := make([]*Node, len(f.Key))
	ents := f.Entries()
	nodes[0].MBR = f.RootMBR
	for id := range nodes {
		nd := &nodes[id]
		ptrs[id] = nd
		nd.ID = id
		nd.Depth = int(f.Depth[id])
		if f.Leaf(int32(id)) {
			if first, end := f.LeafRange(int32(id)); end > first {
				nd.Entries = ents[first:end:end]
			}
			continue
		}
		first, end := f.EntRange(int32(id))
		for e := first; e < end; e++ {
			c := &nodes[f.Key[e]]
			c.MBR = f.EntRect(e)
			kids[e] = c
		}
		nd.Children = kids[first:end:end]
	}
	return ptrs
}
