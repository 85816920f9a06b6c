package broadcast

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tnnbcast/internal/rtree"
)

// SegmentedIndex is the broadcast program (AirIndex): a cycle is a
// sequence of segments, each an explicit run of index pages followed by an
// explicit run of data pages. The paper's preorder (1, m) layout is m segments that each carry
// the whole index in preorder before one data fraction; the distributed
// index is one segment per branch, carrying the replicated root-to-branch
// path and the branch's subtree before the branch's data; a skewed
// broadcast-disks scheduler repeats hot objects within a data run.
//
// In every such layout a node airs at one offset within each segment of
// one contiguous segment range, so a node is stored as that range and
// offset, and its arrivals are a search over the range's segment starts.
// Objects are stored as the ascending slots of their first data page.
type SegmentedIndex struct {
	tree   *rtree.Tree
	params Params
	scheme string
	ppo    int

	segStart []int32   // segStart[i] = cycle slot where segment i begins; len = len(segIndex)+1
	segIndex [][]int32 // node IDs of segment i's index run, in transmission order
	segData  [][]int32 // object IDs of segment i's data run (repeats allowed); a flat run aliases Flat.ID

	nodes []nodeRange // per node: the segments and offset it airs at
	// Object id's first data page airs at the ascending cycle slots
	// objOcc[objOff[id]:objOff[id+1]]. When every object airs exactly
	// once, objOff is nil and the slot is objOcc[id]. A cycle is below
	// 2³¹ slots (newSegmented refuses a longer one), so a slot fits an int32.
	objOff []int32
	objOcc []int32
	delays []int32 // pointer table, per Flat child entry (ChildDelays)
}

// nodeRange places one node on air: at cycle slot segStart[s]+off for
// every segment s in [lo, hi].
type nodeRange struct{ lo, hi, off int32 }

// newSegmented lays out the given segments over valid Params and builds
// the node ranges and object slots. Every node and every object must air
// in at least one segment, and every node at one offset of a contiguous
// segment range. A cycle longer than 2³¹-1 slots is an error.
func newSegmented(tree *rtree.Tree, p Params, scheme string, segIndex, segData [][]int32) (*SegmentedIndex, error) {
	if tree.NodeCap > p.NodeCap() || tree.LeafCap > p.LeafCap() {
		panic(fmt.Sprintf("broadcast: tree capacities (%d,%d) exceed page capacities (%d,%d)",
			tree.NodeCap, tree.LeafCap, p.NodeCap(), p.LeafCap()))
	}
	ppo := p.PagesPerObject()
	total, cycle := 0, 0
	for i, run := range segData {
		total += len(run)
		cycle += len(segIndex[i]) + len(run)*ppo
	}
	if cycle > math.MaxInt32 {
		return nil, fmt.Errorf("broadcast: %d slots per cycle in %s layout exceed 2³¹-1", cycle, scheme)
	}
	si := &SegmentedIndex{
		tree:     tree,
		params:   p,
		scheme:   scheme,
		ppo:      ppo,
		segIndex: segIndex,
		segData:  segData,
		nodes:    placeNodes(segIndex, tree.NumNodes(), scheme),
	}
	si.objOcc = make([]int32, total)
	var next []int32 // CSR fill cursor per object; nil when each airs once
	if total == tree.Count {
		for i := range si.objOcc {
			si.objOcc[i] = -1 // not yet on air
		}
	} else {
		si.objOff = objectOffsets(segData, tree.Count, scheme)
		next = append([]int32(nil), si.objOff[:tree.Count]...)
	}

	// Fill the object slots in one pass over the cycle, in slot order, so
	// every object's slots come out ascending.
	si.segStart = make([]int32, len(segIndex)+1)
	slot := int32(0)
	for i := range segIndex {
		si.segStart[i] = slot
		slot += int32(len(segIndex[i]))
		for _, obj := range segData[i] {
			if next == nil {
				if si.objOcc[obj] >= 0 {
					// With one run entry per object, a repeat means
					// another object never airs.
					panic(fmt.Sprintf("broadcast: object %d airs twice and another never in %s layout", obj, scheme))
				}
				si.objOcc[obj] = slot
			} else {
				si.objOcc[next[obj]] = slot
				next[obj]++
			}
			slot += int32(si.ppo)
		}
	}
	si.segStart[len(segIndex)] = slot
	si.delays = si.childDelays()
	return si, nil
}

// placeNodes returns where each of n nodes airs across the segments'
// index runs. It panics if a node never airs, or airs outside one
// contiguous segment range or at different offsets.
func placeNodes(segIndex [][]int32, n int, scheme string) []nodeRange {
	nodes := make([]nodeRange, n)
	for i := range nodes {
		nodes[i].lo = -1
	}
	for s := 0; s < len(segIndex); {
		// Runs that alias the one before them (the preorder layout's m
		// index copies) extend its nodes' ranges: place the streak at once.
		run, t := segIndex[s], s+1
		for t < len(segIndex) && sameRun(segIndex[t], run) {
			t++
		}
		for k, id := range run {
			r := &nodes[id]
			switch {
			case r.lo < 0:
				*r = nodeRange{lo: int32(s), hi: int32(t - 1), off: int32(k)}
			case int(r.hi) == s-1 && int(r.off) == k:
				r.hi = int32(t - 1)
			default:
				panic(fmt.Sprintf("broadcast: node %d airs outside one segment range and offset in %s layout", id, scheme))
			}
		}
		s = t
	}
	for id, r := range nodes {
		if r.lo < 0 {
			panic(fmt.Sprintf("broadcast: node %d never on air in %s layout", id, scheme))
		}
	}
	return nodes
}

// sameRun reports whether a and b are one slice: the same elements of the
// same backing array.
func sameRun(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// objectOffsets counts how often each of n objects airs across the data
// runs and returns the CSR offsets. It panics if an object never airs.
func objectOffsets(runs [][]int32, n int, scheme string) []int32 {
	off := make([]int32, n+1)
	for _, run := range runs {
		for _, id := range run {
			off[id+1]++
		}
	}
	for id := 0; id < n; id++ {
		if off[id+1] == 0 {
			panic(fmt.Sprintf("broadcast: object %d never on air in %s layout", id, scheme))
		}
		off[id+1] += off[id]
	}
	return off
}

// childDelays builds the pointer table from the node ranges. A child that
// airs in exactly its parent's segments, later in each, follows every
// broadcast of the parent by the difference of their offsets. Any other
// child is 0: it misses some segment of the parent's range, so the
// delays differ between the parent's broadcasts or the child's next one
// falls in the next cycle.
func (si *SegmentedIndex) childDelays() []int32 {
	f := si.tree.Flat()
	d := make([]int32, len(f.Key))
	for p, pr := range si.nodes {
		first, end := f.EntRange(int32(p))
		for e := first; e < end; e++ {
			if c := si.nodes[f.Key[e]]; c.lo == pr.lo && c.hi == pr.hi && c.off > pr.off {
				d[e] = c.off - pr.off
			}
		}
	}
	return d
}

// Scheme names the index family, e.g. "preorder" or "distributed", with
// "+skewed" under a skewed data schedule.
func (si *SegmentedIndex) Scheme() string { return si.scheme }

// Tree returns the packed R-tree the index serializes. The tree is
// shared and immutable.
func (si *SegmentedIndex) Tree() *rtree.Tree { return si.tree }

// Params returns the physical page parameters the program was built
// with.
func (si *SegmentedIndex) Params() Params { return si.params }

// CycleLen returns the number of slots in one broadcast cycle.
func (si *SegmentedIndex) CycleLen() int64 { return int64(si.segStart[len(si.segIndex)]) }

// NumIndexPages returns the number of DISTINCT index pages (one per
// R-tree node); replicated schemes put some of them on air several times
// per cycle.
func (si *SegmentedIndex) NumIndexPages() int { return si.tree.NumNodes() }

// NumDataPages returns the number of data-page slots per cycle (objects
// repeated by a skewed schedule count every repetition).
func (si *SegmentedIndex) NumDataPages() int { return len(si.objOcc) * si.ppo }

// PagesPerObject returns how many consecutive pages one object's content
// occupies.
func (si *SegmentedIndex) PagesPerObject() int { return si.ppo }

// Replication returns how many times the index root is on air per cycle:
// the number of points at which a search can enter the index. For the
// (1,m) scheme this is m; for the distributed index it is the number of
// data partitions.
func (si *SegmentedIndex) Replication() int {
	r := si.nodes[0]
	return int(r.hi-r.lo) + 1
}

// PageAt returns the page on air at cycle-relative slot s ∈
// [0, CycleLen); it panics outside that range.
func (si *SegmentedIndex) PageAt(s int64) Page {
	if s < 0 || s >= si.CycleLen() {
		panic(fmt.Sprintf("broadcast: slot %d outside cycle [0,%d)", s, si.CycleLen()))
	}
	// Find the segment: the last segStart <= s.
	i := sort.Search(len(si.segIndex), func(i int) bool { return int64(si.segStart[i+1]) > s })
	off := s - int64(si.segStart[i])
	if off < int64(len(si.segIndex[i])) {
		return Page{Kind: IndexPage, NodeID: int(si.segIndex[i][off])}
	}
	dataOff := off - int64(len(si.segIndex[i]))
	return Page{
		Kind:     DataPage,
		ObjectID: int(si.segData[i][dataOff/int64(si.ppo)]),
		Seq:      int(dataOff % int64(si.ppo)),
	}
}

// nextOcc returns the smallest t >= rel (t < rel+cycle) such that one of
// the ascending slots occ[i]+off equals t mod cycle.
func (si *SegmentedIndex) nextOcc(occ []int32, off, rel int64) int64 {
	if i, _ := slices.BinarySearch(occ, int32(rel-off)); i < len(occ) {
		return int64(occ[i]) + off
	}
	return int64(occ[0]) + off + si.CycleLen()
}

// NextNodeSlot returns the smallest t >= rel with t < rel+CycleLen such
// that index page nodeID is on air at cycle-relative slot t mod CycleLen.
// rel must lie in [0, CycleLen). A result >= CycleLen therefore means
// "first occurrence of the next cycle".
//
// The node's replicas in its segment range air at ascending slots
// segStart[s]+off. This sits on the query
// hot path, once per enqueued candidate the pointer table cannot serve.
// Most ranges are short (the preorder layout's m replicas, one segment
// below a distributed cut), and a scan of them in line beats a call and
// a binary search's mispredicted branches; a long range, or a short one
// whose next replica is in the next cycle, is searched.
func (si *SegmentedIndex) NextNodeSlot(nodeID int, rel int64) int64 {
	if nodeID < 0 || nodeID >= len(si.nodes) {
		panic(fmt.Sprintf("broadcast: node %d out of range [0,%d)", nodeID, len(si.nodes)))
	}
	r := si.nodes[nodeID]
	starts, off := si.segStart[r.lo:r.hi+1], int64(r.off)
	if len(starts) <= 64 {
		for _, s := range starts {
			if int64(s) >= rel-off {
				return int64(s) + off
			}
		}
	}
	return si.nextOcc(starts, off, rel)
}

// ChildDelays returns the index's pointer table, indexed like the child
// entries of Tree().Flat(): entry e holds the delay in slots from a
// broadcast of e's parent to the next broadcast of child Key[e] — the
// arrival-time pointer the parent's page carries. It holds 0 where no one
// delay serves every broadcast of the parent: the delay differs between
// the parent's occurrences, or the child's next broadcast falls in the
// next program cycle. The table is built with the index and shared;
// callers must not modify it.
func (si *SegmentedIndex) ChildDelays() []int32 { return si.delays }

// NextObjectSlot is NextNodeSlot for the first data page of objectID.
func (si *SegmentedIndex) NextObjectSlot(objectID int, rel int64) int64 {
	if objectID < 0 || objectID >= si.tree.Count {
		panic(fmt.Sprintf("broadcast: object %d out of range [0,%d)", objectID, si.tree.Count))
	}
	if si.objOff != nil {
		return si.nextOcc(si.objOcc[si.objOff[objectID]:si.objOff[objectID+1]], 0, rel)
	}
	t := int64(si.objOcc[objectID])
	if t < rel {
		t += si.CycleLen()
	}
	return t
}

// checkWeights validates an optional per-object weight vector.
func checkWeights(tree *rtree.Tree, weights []float64) {
	if weights == nil {
		return
	}
	if len(weights) != tree.Count {
		panic(fmt.Sprintf("broadcast: %d weights for %d objects", len(weights), tree.Count))
	}
	for id, w := range weights {
		if w < 0 || w != w {
			panic(fmt.Sprintf("broadcast: invalid weight %v for object %d", w, id))
		}
	}
}

// dataRun schedules one data partition, given as a run of Flat.ID (leaf-
// walk order). A flat schedule airs the run itself, sharing the tree's
// array; a skewed schedule's sequence is copied out as int32.
func dataRun(sched SkewedScheduler, part []int32, weights []float64) []int32 {
	if sched.Disks == 0 {
		return part
	}
	ids := make([]int, len(part))
	for i, id := range part {
		ids[i] = int(id)
	}
	seq := sched.Sequence(ids, weights)
	run := make([]int32, len(seq))
	for i, id := range seq {
		run[i] = int32(id)
	}
	return run
}

// schemeName names a layout family under sched: the family alone for a
// flat schedule, else "family+skewed".
func schemeName(family string, sched SkewedScheduler) string {
	if sched.Disks == 0 {
		return family
	}
	return family + "+skewed"
}

// buildDistributed serializes tree as a classic distributed air index
// (Imielinski–Viswanathan–Badrinath): the tree is cut at level cut (in
// [1, Height-1]; 0 selects half the height), the subtrees rooted there are
// the branches, and one cycle transmits one segment per branch in preorder
// order:
//
//	[path: root … branch parent][branch subtree, preorder][branch's data]
//
// Only the cut upper levels are replicated — once per branch on its
// root-to-branch path — so a client reaches a descent entry point about as
// often as under (1, m) replication while the cycle carries far fewer
// repeated index pages. Data pages of each branch follow the branch's
// index directly; sched orders them (flat: once each, leaf-walk order).
func buildDistributed(tree *rtree.Tree, p Params, cut int, sched SkewedScheduler, weights []float64) (*SegmentedIndex, error) {
	scheme := schemeName("distributed", sched)
	if cut <= 0 {
		cut = tree.Height / 2
	}
	if cut > tree.Height-1 {
		cut = tree.Height - 1
	}
	if cut < 1 {
		// A single-level tree (root leaf, possibly empty) has no branches:
		// one segment carries the root and all data.
		segIndex := [][]int32{{0}}
		segData := [][]int32{dataRun(sched, tree.Flat().ID, weights)}
		return newSegmented(tree, p, scheme, segIndex, segData)
	}

	branches := tree.NodesAtDepth(cut)
	segIndex := make([][]int32, 0, len(branches))
	segData := make([][]int32, 0, len(branches))
	for _, b := range branches {
		end := tree.SubtreeEnd(b)
		idx := make([]int32, 0, cut+end-b)
		for _, id := range tree.PathTo(b)[:cut] {
			idx = append(idx, int32(id)) // the replicated upper levels
		}
		for id := b; id < end; id++ {
			idx = append(idx, int32(id)) // the branch subtree, preorder
		}
		segIndex = append(segIndex, idx)
		segData = append(segData, dataRun(sched, tree.Flat().SubtreeIDs(int32(b)), weights))
	}
	return newSegmented(tree, p, scheme, segIndex, segData)
}

// buildPreorder serializes tree as the paper's preorder-(1, m) program:
// the whole index in preorder before each of m data fractions, repeated
// cyclically.
//
//	[index][fraction 0][index][fraction 1]...[index][fraction m-1]
//
// Fraction f carries an equal share of the objects in leaf-walk order, so
// data order follows index order; sched orders each fraction (a skewed
// schedule repeats its hot objects).
func buildPreorder(tree *rtree.Tree, p Params, sched SkewedScheduler, weights []float64) (*SegmentedIndex, error) {
	objOrder := tree.Flat().ID
	n := len(objOrder)
	m := resolveM(p, tree.NumNodes(), n)
	// Balanced object partition: fraction f gets n/m objects plus one of
	// the first n%m remainders.
	base, rem := n/m, n%m

	allNodes := make([]int32, tree.NumNodes())
	for i := range allNodes {
		allNodes[i] = int32(i)
	}
	segIndex := make([][]int32, m)
	segData := make([][]int32, m)
	pos := 0
	for f := range m {
		sz := base
		if f < rem {
			sz++
		}
		segIndex[f] = allNodes
		segData[f] = dataRun(sched, objOrder[pos:pos+sz:pos+sz], weights)
		pos += sz
	}
	return newSegmented(tree, p, schemeName("preorder", sched), segIndex, segData)
}

// resolveM resolves the (1, m) interleaving factor for a preorder program
// of indexPages index pages over n objects: the explicit Params.M, or the
// Imielinski-optimal value, clamped so every fraction holds at least one
// object (and to 1 for an empty dataset, which needs no replication).
func resolveM(p Params, indexPages, n int) int {
	dataPages := n * p.PagesPerObject()
	m := p.M
	if m == 0 {
		// Imielinski-optimal interleaving: m* ≈ sqrt(data/index).
		m = int(math.Round(math.Sqrt(float64(dataPages) / float64(indexPages))))
	}
	if m < 1 {
		m = 1
	}
	if n > 0 && m > n {
		m = n // at least one object per fraction
	}
	if n == 0 {
		m = 1
	}
	return m
}
