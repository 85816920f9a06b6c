package rtree

import (
	"math"
	"sort"

	"tnnbcast/internal/geom"
)

// The pointer-tree packer that Build used before it wrote Flat directly,
// kept as the reference that TestNodeImageMatchesPacker and
// TestFlatMirrorsTree compare Build against: it packs *Node/Entry records
// with sort.Slice, assigns preorder IDs, and converts the result to Flat.

// chunkEntries slices es into runs of at most cap entries and wraps each
// run in a leaf node.
func chunkEntries(es []Entry, cap int) []*Node {
	leaves := make([]*Node, 0, (len(es)+cap-1)/cap)
	for i := 0; i < len(es); i += cap {
		j := i + cap
		if j > len(es) {
			j = len(es)
		}
		run := make([]Entry, j-i)
		copy(run, es[i:j])
		leaves = append(leaves, &Node{MBR: mbrOfEntries(run), Entries: run})
	}
	return leaves
}

// chunkNodes groups ns into runs of at most cap children under new parents.
func chunkNodes(ns []*Node, cap int) []*Node {
	parents := make([]*Node, 0, (len(ns)+cap-1)/cap)
	for i := 0; i < len(ns); i += cap {
		j := i + cap
		if j > len(ns) {
			j = len(ns)
		}
		run := make([]*Node, j-i)
		copy(run, ns[i:j])
		parents = append(parents, &Node{MBR: mbrOfNodes(run), Children: run})
	}
	return parents
}

// packLeavesSTR is the leaf step of Sort-Tile-Recursive: sort by x, cut
// into ⌈sqrt(P)⌉ vertical slabs of ⌈sqrt(P)⌉·cap points, sort each slab by
// y, and pack runs of cap.
func packLeavesSTR(es []Entry, cap int) []*Node {
	n := len(es)
	p := (n + cap - 1) / cap                   // number of leaves
	s := int(math.Ceil(math.Sqrt(float64(p)))) // slabs
	slabSize := s * cap

	sorted := make([]Entry, n)
	copy(sorted, es)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Point.X != sorted[j].Point.X {
			return sorted[i].Point.X < sorted[j].Point.X
		}
		return sorted[i].Point.Y < sorted[j].Point.Y
	})

	var leaves []*Node
	for i := 0; i < n; i += slabSize {
		j := i + slabSize
		if j > n {
			j = n
		}
		slab := sorted[i:j]
		sort.Slice(slab, func(a, b int) bool {
			if slab[a].Point.Y != slab[b].Point.Y {
				return slab[a].Point.Y < slab[b].Point.Y
			}
			return slab[a].Point.X < slab[b].Point.X
		})
		leaves = append(leaves, chunkEntries(slab, cap)...)
	}
	return leaves
}

// packNodesSTR applies the same tiling to node centers for the upper
// levels.
func packNodesSTR(ns []*Node, cap int) []*Node {
	n := len(ns)
	p := (n + cap - 1) / cap
	s := int(math.Ceil(math.Sqrt(float64(p))))
	slabSize := s * cap

	sorted := make([]*Node, n)
	copy(sorted, ns)
	sort.Slice(sorted, func(i, j int) bool {
		ci, cj := sorted[i].MBR.Center(), sorted[j].MBR.Center()
		if ci.X != cj.X {
			return ci.X < cj.X
		}
		return ci.Y < cj.Y
	})

	var parents []*Node
	for i := 0; i < n; i += slabSize {
		j := i + slabSize
		if j > n {
			j = n
		}
		slab := sorted[i:j]
		sort.Slice(slab, func(a, b int) bool {
			ca, cb := slab[a].MBR.Center(), slab[b].MBR.Center()
			if ca.Y != cb.Y {
				return ca.Y < cb.Y
			}
			return ca.X < cb.X
		})
		parents = append(parents, chunkNodes(slab, cap)...)
	}
	return parents
}

// packLeavesHilbert packs points in Hilbert-curve order of their position
// within the dataset MBR, quantized to a 2^hilbertOrder grid.
func packLeavesHilbert(es []Entry, cap int) []*Node {
	mbr := mbrOfEntries(es)
	type keyed struct {
		e Entry
		k uint64
	}
	ks := make([]keyed, len(es))
	for i, e := range es {
		ks[i] = keyed{e: e, k: hilbertKey(e.Point, mbr)}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].k < ks[j].k })
	sorted := make([]Entry, len(es))
	for i, ke := range ks {
		sorted[i] = ke.e
	}
	return chunkEntries(sorted, cap)
}

// packLeavesNearestX packs points sorted by x-coordinate only.
func packLeavesNearestX(es []Entry, cap int) []*Node {
	sorted := make([]Entry, len(es))
	copy(sorted, es)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Point.X != sorted[j].Point.X {
			return sorted[i].Point.X < sorted[j].Point.X
		}
		return sorted[i].Point.Y < sorted[j].Point.Y
	})
	return chunkEntries(sorted, cap)
}

// packNodesLinear groups nodes in their existing (curve) order.
func packNodesLinear(ns []*Node, cap int) []*Node {
	return chunkNodes(ns, cap)
}

// packRef is the old Build, which also returns the packer's node image in
// preorder.
func packRef(pts []geom.Point, cfg Config) (*Tree, []*Node) {
	if cfg.LeafCap < 1 {
		panic("rtree: LeafCap must be >= 1")
	}
	if cfg.NodeCap < 2 {
		panic("rtree: NodeCap must be >= 2")
	}
	t := &Tree{LeafCap: cfg.LeafCap, NodeCap: cfg.NodeCap, Packing: cfg.Packing, Count: len(pts), Height: 1}
	if len(pts) == 0 {
		nodes := index(&Node{MBR: geom.EmptyRect()})
		t.flat = buildFlat(nodes, 0)
		return t, nodes
	}

	entries := make([]Entry, len(pts))
	for i, p := range pts {
		entries[i] = Entry{Point: p, ID: i}
	}

	var leaves []*Node
	switch cfg.Packing {
	case HilbertSort:
		leaves = packLeavesHilbert(entries, cfg.LeafCap)
	case NearestX:
		leaves = packLeavesNearestX(entries, cfg.LeafCap)
	default:
		leaves = packLeavesSTR(entries, cfg.LeafCap)
	}

	level := leaves
	for len(level) > 1 {
		switch cfg.Packing {
		case HilbertSort, NearestX:
			level = packNodesLinear(level, cfg.NodeCap)
		default:
			level = packNodesSTR(level, cfg.NodeCap)
		}
		t.Height++
	}
	nodes := index(level[0])
	t.flat = buildFlat(nodes, len(pts))
	return t, nodes
}

// index assigns preorder IDs and depths below root and returns the nodes
// in preorder.
func index(root *Node) []*Node {
	var nodes []*Node
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		n.ID = len(nodes)
		n.Depth = depth
		nodes = append(nodes, n)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return nodes
}

// buildFlat constructs the SoA image of the packer's nodes, given in
// preorder with IDs and depths assigned. One preorder pass: each node
// appends its child MBRs (keeping every parent's run contiguous) or its
// data points.
func buildFlat(nodes []*Node, count int) *Flat {
	n := len(nodes)
	nEnt := n - 1
	f := &Flat{
		Depth:     make([]int32, n),
		Parent:    make([]int32, n),
		SubEnd:    make([]int32, n),
		EntFirst:  make([]int32, n),
		EntCount:  make([]int32, n),
		LeafFirst: make([]int32, n),
		LeafCount: make([]int32, n),
		MinX:      make([]float64, 0, nEnt),
		MinY:      make([]float64, 0, nEnt),
		MaxX:      make([]float64, 0, nEnt),
		MaxY:      make([]float64, 0, nEnt),
		Key:       make([]int32, 0, nEnt),
		X:         make([]float64, 0, count),
		Y:         make([]float64, 0, count),
		ID:        make([]int32, 0, count),
		RootMBR:   nodes[0].MBR,
	}
	f.Parent[0] = -1
	for id := n - 1; id >= 0; id-- { // reverse preorder: children before parents
		nd := nodes[id]
		f.SubEnd[id] = int32(id + 1)
		if k := len(nd.Children); k > 0 {
			f.SubEnd[id] = f.SubEnd[nd.Children[k-1].ID]
		}
	}
	for _, nd := range nodes { // preorder: parents precede children
		id := nd.ID
		f.Depth[id] = int32(nd.Depth)
		f.LeafFirst[id] = int32(len(f.X))
		if nd.Leaf() {
			f.LeafCount[id] = int32(len(nd.Entries))
			for _, e := range nd.Entries {
				f.X = append(f.X, e.Point.X)
				f.Y = append(f.Y, e.Point.Y)
				f.ID = append(f.ID, int32(e.ID))
			}
			continue
		}
		f.EntFirst[id] = int32(len(f.Key))
		f.EntCount[id] = int32(len(nd.Children))
		for _, c := range nd.Children {
			f.Parent[c.ID] = int32(id)
			f.MinX = append(f.MinX, c.MBR.Lo.X)
			f.MinY = append(f.MinY, c.MBR.Lo.Y)
			f.MaxX = append(f.MaxX, c.MBR.Hi.X)
			f.MaxY = append(f.MaxY, c.MBR.Hi.Y)
			f.Key = append(f.Key, int32(c.ID))
		}
	}
	return f
}
