// Package rtree implements static, bulk-loaded (packed) R-trees over 2-D
// points, as used by the paper for air indexing: the point sets are known a
// priori and never updated, so packing algorithms (STR, Hilbert sort,
// Nearest-X) build a tree with full nodes and near-optimal overlap.
//
// Build sorts int32 permutations of the points, then of each level's
// nodes, and writes the tree's only image, the structure-of-arrays Flat,
// without building a pointer tree. The broadcast substrate
// (internal/broadcast) serializes a tree into fixed-size pages in
// depth-first order; the query algorithms in internal/core then traverse
// the *broadcast image* of the tree under the linear-access constraint.
// The in-memory query methods in this package (window, circular range,
// best-first NN) are the disk/memory reference implementations, used as
// correctness oracles and for the client-side join.
package rtree

import (
	"strconv"
	"sync"
	"sync/atomic"

	"tnnbcast/internal/geom"
)

// Entry is a leaf-level entry: one data point and the identifier of the
// object it locates (its index in the original dataset slice).
type Entry struct {
	Point geom.Point
	ID    int
}

// Node is an R-tree node. Exactly one of Children and Entries is non-empty
// (except for a degenerate empty tree). Nodes carry their preorder ID and
// depth, assigned at build time; the broadcast layer keys its page schedule
// on the preorder ID.
type Node struct {
	MBR      geom.Rect
	Children []*Node // internal nodes: child subtrees, in packing order
	Entries  []Entry // leaf nodes: data points
	ID       int     // preorder (depth-first) index within the tree
	Depth    int     // root has depth 0
}

// Leaf reports whether n is a leaf node.
func (n *Node) Leaf() bool { return len(n.Children) == 0 }

// Packing selects the bulk-loading algorithm.
type Packing int

const (
	// STR is the Sort-Tile-Recursive packing of Leutenegger et al. —
	// the algorithm the paper uses ("we use STR packing algorithm to
	// build the R-tree in order to achieve the best performance").
	STR Packing = iota
	// HilbertSort packs points in Hilbert-curve order (Kamel–Faloutsos).
	HilbertSort
	// NearestX packs points sorted by x-coordinate only
	// (Roussopoulos–Leifker); the weakest but simplest packer.
	NearestX
)

func (p Packing) String() string {
	switch p {
	case STR:
		return "STR"
	case HilbertSort:
		return "Hilbert"
	case NearestX:
		return "NearestX"
	default:
		return "Packing(" + strconv.Itoa(int(p)) + ")"
	}
}

// Config controls tree construction.
type Config struct {
	// LeafCap is the maximum number of point entries per leaf.
	LeafCap int
	// NodeCap is the maximum number of children per internal node.
	NodeCap int
	// Packing selects the bulk-loading algorithm; default STR.
	Packing Packing
}

// Tree is a packed, immutable R-tree. Its resident image is the SoA Flat
// (flat.go), which Build writes directly; Root and Nodes build the
// pointer image of *Node/Entry records from Flat on first use, for the
// oracles and tests that walk pointers.
type Tree struct {
	Height  int // number of levels (a single leaf root has height 1)
	Count   int // number of data points
	LeafCap int
	NodeCap int
	Packing Packing

	flat *Flat // SoA image, built once by Build; see flat.go

	image      sync.Once
	imageBuilt atomic.Bool
	nodes      []*Node // the pointer image, built by Nodes; nodes[i].ID == i
}

// Build bulk-loads a packed R-tree over pts. Entry IDs are the indices into
// pts. Build panics if the capacities are below 2 (below 1 for LeafCap),
// since such trees cannot exist.
func Build(pts []geom.Point, cfg Config) *Tree {
	if cfg.LeafCap < 1 {
		panic("rtree: LeafCap must be >= 1")
	}
	if cfg.NodeCap < 2 {
		panic("rtree: NodeCap must be >= 2")
	}
	levels := pack(pts, cfg)
	return &Tree{
		Height:  len(levels),
		Count:   len(pts),
		LeafCap: cfg.LeafCap,
		NodeCap: cfg.NodeCap,
		Packing: cfg.Packing,
		flat:    writeFlat(pts, levels),
	}
}

// Root returns the root of the pointer image, building the image from
// Flat on first use (see Nodes).
func (t *Tree) Root() *Node { return t.Nodes()[0] }

// Nodes returns the pointer image's nodes in preorder; Nodes()[i].ID == i.
// The image is built from Flat on the first call, once however many
// goroutines ask. The query hot path never needs it: only pointer-walking
// oracles and tests call it.
func (t *Tree) Nodes() []*Node {
	t.image.Do(func() {
		t.nodes = t.flat.nodeImage()
		t.imageBuilt.Store(true)
	})
	return t.nodes
}

// NodeImageBuilt reports whether Root or Nodes has built the pointer
// image. Tests use it to check that a path runs on Flat alone.
func (t *Tree) NodeImageBuilt() bool { return t.imageBuilt.Load() }

// NumNodes returns the number of nodes, which is also the number of
// distinct index pages the tree airs as.
func (t *Tree) NumNodes() int { return len(t.flat.Depth) }

// Parent returns the preorder ID of nodeID's parent, or -1 for the root.
func (t *Tree) Parent(nodeID int) int { return int(t.flat.Parent[nodeID]) }

// SubtreeEnd returns one past the largest preorder ID in nodeID's subtree:
// preorder IDs are contiguous per subtree, so [nodeID, SubtreeEnd(nodeID))
// is exactly the subtree in broadcast (depth-first) order.
func (t *Tree) SubtreeEnd(nodeID int) int { return int(t.flat.SubEnd[nodeID]) }

// PathTo returns the preorder IDs on the path from the root to nodeID,
// inclusive, root first. The distributed air index replicates exactly this
// path (above its cut level) before each branch segment.
func (t *Tree) PathTo(nodeID int) []int {
	var path []int
	for id := nodeID; id >= 0; id = t.Parent(id) {
		path = append(path, id)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// NodesAtDepth returns the preorder IDs of the nodes at the given depth,
// ascending. Depth 0 is the root; in a packed tree all leaves share one
// depth.
func (t *Tree) NodesAtDepth(depth int) []int {
	var out []int
	for id, d := range t.flat.Depth {
		if int(d) == depth {
			out = append(out, id)
		}
	}
	return out
}

// Preorder calls fn for every node of the pointer image in depth-first
// preorder (the broadcast order the paper uses).
func (t *Tree) Preorder(fn func(n *Node)) {
	for _, n := range t.Nodes() {
		fn(n)
	}
}

// mbrOfEntries returns the bounding rectangle of a run of entries.
func mbrOfEntries(es []Entry) geom.Rect {
	r := geom.EmptyRect()
	for _, e := range es {
		r = r.Extend(e.Point)
	}
	return r
}

// mbrOfNodes returns the bounding rectangle of a run of nodes.
func mbrOfNodes(ns []*Node) geom.Rect {
	r := geom.EmptyRect()
	for _, n := range ns {
		r = r.Union(n.MBR)
	}
	return r
}
