package rtree

import (
	"cmp"
	"math"
	"slices"

	"tnnbcast/internal/geom"
)

// This file implements the three bulk-loading (packing) strategies. All of
// them fill nodes to capacity; they differ only in the ordering that
// decides which points share a leaf. Each level orders the level below
// (points, then nodes) into an int32 permutation and cuts it into runs of
// the capacity; Build then lays the levels out as Flat in one preorder
// walk.

// A level is one packed layer of the tree, leaves first: node k's
// children are the run kids[k*cap:(k+1)*cap] (shorter at the end), point
// indices at the leaf level and node indices of the level below above
// it, and box[k] is node k's MBR.
type level struct {
	kids []int32
	cap  int
	box  []geom.Rect
}

// run returns node k's children.
func (l *level) run(k int32) []int32 {
	i := int(k) * l.cap
	return l.kids[i:min(i+l.cap, len(l.kids))]
}

// pack sorts and cuts pts into levels, leaves first and the single root
// last. An empty pts packs into one empty leaf.
func pack(pts []geom.Point, cfg Config) []level {
	str := cfg.Packing != HilbertSort && cfg.Packing != NearestX // STR, the default
	// STR and NearestX sort keys, one buffer for every level: the points,
	// then each upper level's box centres.
	var keys []sortKey
	if cfg.Packing != HilbertSort {
		keys = make([]sortKey, len(pts))
		for i, p := range pts {
			keys[i] = sortKey{p.X, p.Y, int32(i)}
		}
	}
	var perm []int32
	switch {
	case str:
		perm = sortSTR(keys, cfg.LeafCap)
	case cfg.Packing == NearestX:
		slices.SortFunc(keys, cmpXY)
		perm = keyIndices(keys)
	default:
		perm = iota32(len(pts))
		sortHilbert(perm, pts)
	}
	lv := level{kids: perm, cap: cfg.LeafCap, box: make([]geom.Rect, max(1, ceilDiv(len(pts), cfg.LeafCap)))}
	for k := range lv.box {
		r := geom.EmptyRect()
		for _, p := range lv.run(int32(k)) {
			r = r.Extend(pts[p])
		}
		lv.box[k] = r
	}
	levels := []level{lv}
	for len(lv.box) > 1 {
		below := lv.box
		if str {
			centers := keys[:len(below)]
			for i, b := range below {
				c := b.Center()
				centers[i] = sortKey{c.X, c.Y, int32(i)}
			}
			perm = sortSTR(centers, cfg.NodeCap)
		} else {
			perm = iota32(len(below))
		}
		lv = level{kids: perm, cap: cfg.NodeCap, box: make([]geom.Rect, ceilDiv(len(below), cfg.NodeCap))}
		for k := range lv.box {
			r := geom.EmptyRect()
			for _, c := range lv.run(int32(k)) {
				r = r.Union(below[c])
			}
			lv.box[k] = r
		}
		levels = append(levels, lv)
	}
	return levels
}

// A sortKey is one item of a level being sorted: its position and its
// index in the level.
type sortKey struct {
	x, y float64
	i    int32
}

func cmpXY(a, b sortKey) int { return cmpLex(a.x, a.y, b.x, b.y) }
func cmpYX(a, b sortKey) int { return cmpLex(a.y, a.x, b.y, b.x) }

// sortSTR puts keys in Sort-Tile-Recursive order for runs of cap and
// returns their indices in that order: sorted by x, cut into ⌈sqrt(P)⌉
// vertical slabs of ⌈sqrt(P)⌉·cap items (P runs in all), and each slab
// sorted by y. A slab is a whole number of runs, so cutting the order
// into runs of cap tiles every slab.
//
// The keys carry their coordinates, so a comparison reads two adjacent
// records instead of two random points. The order is the one a sort of
// an index permutation by the same comparator gives, exact ties
// included: slices.SortFunc's pdqsort moves items by the comparisons'
// outcomes and the slice length alone, never by the items' contents, so
// sorting the records or their indices makes the same moves.
func sortSTR(keys []sortKey, cap int) []int32 {
	slabSize := int(math.Ceil(math.Sqrt(float64(ceilDiv(len(keys), cap))))) * cap
	slices.SortFunc(keys, cmpXY)
	for i := 0; i < len(keys); i += slabSize {
		slices.SortFunc(keys[i:min(i+slabSize, len(keys))], cmpYX)
	}
	return keyIndices(keys)
}

// keyIndices returns the indices of keys in their order.
func keyIndices(keys []sortKey) []int32 {
	perm := make([]int32, len(keys))
	for j, k := range keys {
		perm[j] = k.i
	}
	return perm
}

// sortHilbert puts perm, indices into pts, in Hilbert-curve order of the
// points' positions within their MBR, quantized to a 2^hilbertOrder grid;
// ties keep index order.
func sortHilbert(perm []int32, pts []geom.Point) {
	mbr := geom.EmptyRect()
	for _, p := range pts {
		mbr = mbr.Extend(p)
	}
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = hilbertKey(p, mbr)
	}
	// perm arrives in index order, so breaking key ties by index gives the
	// stable order without SortStableFunc's O(n log² n) merge.
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b)) })
}

// cmpLex orders (a1, a2) and (b1, b2) lexicographically. It is negative
// exactly when a1 < b1, or a1 == b1 and a2 < b2 (NaNs included), so a
// sort by it permutes as one by that less function would, ties included.
func cmpLex(a1, a2, b1, b2 float64) int {
	switch {
	case a1 != b1:
		if a1 < b1 {
			return -1
		}
		return 1
	case a2 < b2:
		return -1
	case a2 > b2:
		return 1
	}
	return 0
}

// iota32 returns the identity permutation of n.
func iota32(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

func ceilDiv(n, d int) int { return (n + d - 1) / d }

// flatWriter lays packed levels out as a Flat in one preorder walk.
type flatWriter struct {
	pts    []geom.Point
	levels []level
	f      *Flat
}

// writeFlat returns the Flat image of levels over pts.
func writeFlat(pts []geom.Point, levels []level) *Flat {
	n := 0
	for _, lv := range levels {
		n += len(lv.box)
	}
	top := len(levels) - 1
	f := &Flat{
		Depth:     make([]int32, 0, n),
		Parent:    make([]int32, 0, n),
		SubEnd:    make([]int32, 0, n),
		EntFirst:  make([]int32, 0, n),
		EntCount:  make([]int32, 0, n),
		LeafFirst: make([]int32, 0, n),
		LeafCount: make([]int32, 0, n),
		MinX:      make([]float64, 0, n-1),
		MinY:      make([]float64, 0, n-1),
		MaxX:      make([]float64, 0, n-1),
		MaxY:      make([]float64, 0, n-1),
		Key:       make([]int32, 0, n-1),
		X:         make([]float64, 0, len(pts)),
		Y:         make([]float64, 0, len(pts)),
		ID:        make([]int32, 0, len(pts)),
		RootMBR:   levels[top].box[0],
	}
	w := flatWriter{pts: pts, levels: levels, f: f}
	w.visit(top, 0, -1)
	return f
}

// visit appends node k of level lv, whose parent is node parent, and its
// subtree in preorder, and returns the node's preorder ID. A node's child
// entries are appended before its children are visited, so every run is
// contiguous and runs are in the preorder of their parents.
func (w *flatWriter) visit(lv int, k int32, parent int32) int32 {
	f := w.f
	id := int32(len(f.Depth))
	run := w.levels[lv].run(k)
	f.Depth = append(f.Depth, int32(len(w.levels)-1-lv))
	f.Parent = append(f.Parent, parent)
	f.SubEnd = append(f.SubEnd, 0)
	f.LeafFirst = append(f.LeafFirst, int32(len(f.ID)))
	if lv == 0 {
		f.EntFirst = append(f.EntFirst, 0)
		f.EntCount = append(f.EntCount, 0)
		f.LeafCount = append(f.LeafCount, int32(len(run)))
		for _, p := range run {
			f.X = append(f.X, w.pts[p].X)
			f.Y = append(f.Y, w.pts[p].Y)
			f.ID = append(f.ID, p)
		}
	} else {
		first := int32(len(f.Key))
		f.EntFirst = append(f.EntFirst, first)
		f.EntCount = append(f.EntCount, int32(len(run)))
		f.LeafCount = append(f.LeafCount, 0)
		below := w.levels[lv-1].box
		for _, c := range run {
			f.MinX = append(f.MinX, below[c].Lo.X)
			f.MinY = append(f.MinY, below[c].Lo.Y)
			f.MaxX = append(f.MaxX, below[c].Hi.X)
			f.MaxY = append(f.MaxY, below[c].Hi.Y)
			f.Key = append(f.Key, 0)
		}
		for i, c := range run {
			f.Key[first+int32(i)] = w.visit(lv-1, c, id)
		}
	}
	f.SubEnd[id] = int32(len(f.Depth))
	return id
}

// hilbertOrder is the recursion depth of the Hilbert curve used for
// ordering; 16 gives a 65536×65536 grid, ample for datasets of ~10^5
// points.
const hilbertOrder = 16

// hilbertKey maps p (quantized within mbr) to its distance along the
// Hilbert curve.
func hilbertKey(p geom.Point, mbr geom.Rect) uint64 {
	side := uint32(1) << hilbertOrder
	fx, fy := 0.0, 0.0
	if mbr.Width() > 0 {
		fx = (p.X - mbr.Lo.X) / mbr.Width()
	}
	if mbr.Height() > 0 {
		fy = (p.Y - mbr.Lo.Y) / mbr.Height()
	}
	x := uint32(fx * float64(side-1))
	y := uint32(fy * float64(side-1))
	return hilbertD(x, y, hilbertOrder)
}

// hilbertD converts grid coordinates to the distance along a Hilbert curve
// of the given order (standard bit-twiddling formulation).
func hilbertD(x, y uint32, order uint) uint64 {
	var rx, ry uint32
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}
