package broadcast

import (
	"fmt"
	"math"
	"sort"

	"tnnbcast/internal/rtree"
)

// SegmentedIndex is the general segment-based AirIndex implementation: a
// cycle is a sequence of segments, each an explicit run of index pages
// followed by an explicit run of data pages. Arrival queries are answered
// from precomputed per-node and per-object occurrence lists, so any page
// may appear any number of times per cycle — which is what the
// distributed index (replicated upper levels) and the skewed
// broadcast-disks scheduler (repeated hot objects) need. The preorder
// (1, m) scheme stays on the arithmetic *Program fast path.
type SegmentedIndex struct {
	tree   *rtree.Tree
	params Params
	scheme string
	ppo    int

	segStart []int64 // segStart[i] = cycle slot where segment i begins; len = len(segIndex)+1
	segIndex [][]int // node IDs of segment i's index run, in transmission order
	segData  [][]int // object IDs of segment i's data run (repeats allowed)

	nodeSlots [][]int64 // per node: ascending cycle slots where its page airs
	objSlots  [][]int64 // per object: ascending cycle slots of its first data page
	delays    []int32   // pointer table, per Flat child entry (ChildDelays)

	dataPages int
}

// SegmentedIndex implements AirIndex.
var _ AirIndex = (*SegmentedIndex)(nil)

// newSegmented lays out the given segments and builds the occurrence
// lists. Every tree node and every object must appear in at least one
// segment.
func newSegmented(tree *rtree.Tree, p Params, scheme string, segIndex, segData [][]int) *SegmentedIndex {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if tree.NodeCap > p.NodeCap() || tree.LeafCap > p.LeafCap() {
		panic(fmt.Sprintf("broadcast: tree capacities (%d,%d) exceed page capacities (%d,%d)",
			tree.NodeCap, tree.LeafCap, p.NodeCap(), p.LeafCap()))
	}
	si := &SegmentedIndex{
		tree:      tree,
		params:    p,
		scheme:    scheme,
		ppo:       p.PagesPerObject(),
		segIndex:  segIndex,
		segData:   segData,
		nodeSlots: make([][]int64, len(tree.Nodes)),
		objSlots:  make([][]int64, tree.Count),
	}
	si.segStart = make([]int64, len(segIndex)+1)
	slot := int64(0)
	for i := range segIndex {
		si.segStart[i] = slot
		for _, id := range segIndex[i] {
			si.nodeSlots[id] = append(si.nodeSlots[id], slot)
			slot++
		}
		for _, obj := range segData[i] {
			si.objSlots[obj] = append(si.objSlots[obj], slot)
			slot += int64(si.ppo)
			si.dataPages += si.ppo
		}
	}
	si.segStart[len(segIndex)] = slot
	for id, occ := range si.nodeSlots {
		if len(occ) == 0 {
			panic(fmt.Sprintf("broadcast: node %d never on air in %s layout", id, scheme))
		}
	}
	for obj, occ := range si.objSlots {
		if len(occ) == 0 {
			panic(fmt.Sprintf("broadcast: object %d never on air in %s layout", obj, scheme))
		}
	}
	si.delays = si.childDelays()
	return si
}

// childDelays builds the pointer table from the occurrence lists, one
// merge pass over a parent's and a child's slots per child entry.
func (si *SegmentedIndex) childDelays() []int32 {
	f := si.tree.Flat()
	d := make([]int32, len(f.Key))
	for p, occ := range si.nodeSlots {
		first, end := f.EntRange(int32(p))
		for e := first; e < end; e++ {
			d[e] = commonDelay(occ, si.nodeSlots[f.Key[e]])
		}
	}
	return d
}

// commonDelay returns the delay from each of the parent's ascending slots
// to the child's next slot after it, when that delay is the same for all
// of them and each lies within the cycle; else 0.
func commonDelay(parent, child []int64) int32 {
	var want int64
	j := 0
	for _, s := range parent {
		for j < len(child) && child[j] <= s {
			j++
		}
		if j == len(child) {
			return 0 // the child's next broadcast is in the next cycle
		}
		if d := child[j] - s; want == 0 {
			want = d
		} else if d != want {
			return 0
		}
	}
	if want > math.MaxInt32 {
		return 0
	}
	return int32(want)
}

// Scheme implements AirIndex.
func (si *SegmentedIndex) Scheme() string { return si.scheme }

// Tree implements AirIndex.
func (si *SegmentedIndex) Tree() *rtree.Tree { return si.tree }

// Params implements AirIndex.
func (si *SegmentedIndex) Params() Params { return si.params }

// CycleLen implements AirIndex.
func (si *SegmentedIndex) CycleLen() int64 { return si.segStart[len(si.segIndex)] }

// NumIndexPages implements AirIndex: distinct index pages, one per node.
func (si *SegmentedIndex) NumIndexPages() int { return len(si.tree.Nodes) }

// NumDataPages implements AirIndex: data-page slots per cycle, counting
// repetitions.
func (si *SegmentedIndex) NumDataPages() int { return si.dataPages }

// PagesPerObject implements AirIndex.
func (si *SegmentedIndex) PagesPerObject() int { return si.ppo }

// Replication implements AirIndex: how often the root airs per cycle.
func (si *SegmentedIndex) Replication() int { return len(si.nodeSlots[0]) }

// NumSegments returns the number of segments per cycle.
func (si *SegmentedIndex) NumSegments() int { return len(si.segIndex) }

// PageAt implements AirIndex.
func (si *SegmentedIndex) PageAt(s int64) Page {
	if s < 0 || s >= si.CycleLen() {
		panic(fmt.Sprintf("broadcast: slot %d outside cycle [0,%d)", s, si.CycleLen()))
	}
	// Find the segment: the last segStart <= s.
	i := sort.Search(len(si.segIndex), func(i int) bool { return si.segStart[i+1] > s })
	off := s - si.segStart[i]
	if off < int64(len(si.segIndex[i])) {
		return Page{Kind: IndexPage, NodeID: si.segIndex[i][off]}
	}
	dataOff := off - int64(len(si.segIndex[i]))
	return Page{
		Kind:     DataPage,
		ObjectID: si.segData[i][dataOff/int64(si.ppo)],
		Seq:      int(dataOff % int64(si.ppo)),
	}
}

// nextOcc returns the smallest t >= rel (t < rel+cycle) such that one of
// the ascending occurrence slots occ equals t mod cycle.
func (si *SegmentedIndex) nextOcc(occ []int64, rel int64) int64 {
	i := sort.Search(len(occ), func(i int) bool { return occ[i] >= rel })
	if i < len(occ) {
		return occ[i]
	}
	return occ[0] + si.CycleLen()
}

// NextNodeSlot implements AirIndex.
func (si *SegmentedIndex) NextNodeSlot(nodeID int, rel int64) int64 {
	if nodeID < 0 || nodeID >= len(si.nodeSlots) {
		panic(fmt.Sprintf("broadcast: node %d out of range [0,%d)", nodeID, len(si.nodeSlots)))
	}
	return si.nextOcc(si.nodeSlots[nodeID], rel)
}

// ChildDelays implements AirIndex.
func (si *SegmentedIndex) ChildDelays() []int32 { return si.delays }

// NextObjectSlot implements AirIndex.
func (si *SegmentedIndex) NextObjectSlot(objectID int, rel int64) int64 {
	if objectID < 0 || objectID >= len(si.objSlots) {
		panic(fmt.Sprintf("broadcast: object %d out of range [0,%d)", objectID, len(si.objSlots)))
	}
	return si.nextOcc(si.objSlots[objectID], rel)
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

// leafWalkObjects returns the object IDs under the preorder node range
// [lo, hi) in leaf-walk order — the broadcast data order of every scheme.
func leafWalkObjects(tree *rtree.Tree, lo, hi int) []int {
	var objs []int
	for _, n := range tree.Nodes[lo:hi] {
		for _, e := range n.Entries {
			objs = append(objs, e.ID)
		}
	}
	return objs
}

// BuildDistributed serializes tree as a classic distributed air index
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
// index directly; sched orders them (FlatScheduler: once each, leaf-walk
// order).
//
// Like BuildProgram it panics on invalid Params, on oversized tree
// capacities, and on a malformed weight vector.
func BuildDistributed(tree *rtree.Tree, p Params, cut int, sched Scheduler, weights []float64) *SegmentedIndex {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	checkWeights(tree, weights)
	if sched == nil {
		sched = FlatScheduler{}
	}
	scheme := "distributed"
	if sched.Name() != (FlatScheduler{}).Name() {
		scheme += "+" + sched.Name()
	}

	if cut <= 0 {
		cut = tree.Height / 2
	}
	if cut > tree.Height-1 {
		cut = tree.Height - 1
	}
	if cut < 1 {
		// A single-level tree (root leaf, possibly empty) has no branches:
		// one segment carries the root and all data.
		segIndex := [][]int{{0}}
		segData := [][]int{sched.Sequence(leafWalkObjects(tree, 0, len(tree.Nodes)), weights)}
		return newSegmented(tree, p, scheme, segIndex, segData)
	}

	var segIndex, segData [][]int
	for _, b := range tree.NodesAtDepth(cut) {
		path := tree.PathTo(b.ID) // root … branch, inclusive
		idx := make([]int, 0, cut+tree.SubtreeEnd(b.ID)-b.ID)
		idx = append(idx, path[:cut]...) // the replicated upper levels
		for id := b.ID; id < tree.SubtreeEnd(b.ID); id++ {
			idx = append(idx, id) // the branch subtree, preorder
		}
		segIndex = append(segIndex, idx)
		segData = append(segData, sched.Sequence(leafWalkObjects(tree, b.ID, tree.SubtreeEnd(b.ID)), weights))
	}
	return newSegmented(tree, p, scheme, segIndex, segData)
}

// BuildScheduled serializes tree with the preorder-(1, m) index layout of
// BuildProgram but hands each data fraction to sched — the seam that lets
// a skewed broadcast-disks data organization ride under the paper's index
// scheme. (With FlatScheduler, prefer BuildProgram: identical layout,
// arithmetic arrival queries.)
func BuildScheduled(tree *rtree.Tree, p Params, sched Scheduler, weights []float64) *SegmentedIndex {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	checkWeights(tree, weights)
	if sched == nil {
		sched = FlatScheduler{}
	}
	scheme := "preorder"
	if sched.Name() != (FlatScheduler{}).Name() {
		scheme += "+" + sched.Name()
	}

	// Resolve m exactly as BuildProgram does (shared helper).
	objOrder := leafWalkObjects(tree, 0, len(tree.Nodes))
	n := len(objOrder)
	m := resolveM(p, len(tree.Nodes), n)
	base, rem := 0, 0
	if m > 0 {
		base, rem = n/m, n%m
	}

	allNodes := make([]int, len(tree.Nodes))
	for i := range allNodes {
		allNodes[i] = i
	}
	var segIndex, segData [][]int
	pos := 0
	for f := 0; f < m; f++ {
		sz := base
		if f < rem {
			sz++
		}
		segIndex = append(segIndex, allNodes)
		segData = append(segData, sched.Sequence(objOrder[pos:pos+sz], weights))
		pos += sz
	}
	return newSegmented(tree, p, scheme, segIndex, segData)
}
