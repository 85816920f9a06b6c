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
// from precomputed per-node and per-object occurrence arrays, so any page
// may appear any number of times per cycle — which is what the
// distributed index (replicated upper levels) and the skewed
// broadcast-disks scheduler (repeated hot objects) need. The preorder
// (1, m) scheme stays on the arithmetic *Program fast path.
type SegmentedIndex struct {
	tree   *rtree.Tree
	params Params
	scheme string
	ppo    int

	segStart []int64   // segStart[i] = cycle slot where segment i begins; len = len(segIndex)+1
	segIndex [][]int32 // node IDs of segment i's index run, in transmission order
	segData  [][]int32 // object IDs of segment i's data run (repeats allowed); a flat run aliases Flat.ID

	// Occurrences in CSR form: node id airs at the ascending cycle slots
	// nodeOcc[nodeOff[id]:nodeOff[id+1]], and object id's first data page
	// at objOcc[objOff[id]:objOff[id+1]].
	nodeOff []int32
	nodeOcc []int64
	objOff  []int32
	objOcc  []int64
	delays  []int32 // pointer table, per Flat child entry (ChildDelays)

	dataPages int
}

// SegmentedIndex implements AirIndex.
var _ AirIndex = (*SegmentedIndex)(nil)

// newSegmented lays out the given segments and builds the occurrence
// arrays. Every tree node and every object must appear in at least one
// segment.
func newSegmented(tree *rtree.Tree, p Params, scheme string, segIndex, segData [][]int32) *SegmentedIndex {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if tree.NodeCap > p.NodeCap() || tree.LeafCap > p.LeafCap() {
		panic(fmt.Sprintf("broadcast: tree capacities (%d,%d) exceed page capacities (%d,%d)",
			tree.NodeCap, tree.LeafCap, p.NodeCap(), p.LeafCap()))
	}
	si := &SegmentedIndex{
		tree:     tree,
		params:   p,
		scheme:   scheme,
		ppo:      p.PagesPerObject(),
		segIndex: segIndex,
		segData:  segData,
	}
	si.nodeOff, si.nodeOcc = occurrences(segIndex, tree.NumNodes(), "node", scheme)
	si.objOff, si.objOcc = occurrences(segData, tree.Count, "object", scheme)

	// Fill both arrays in one pass over the cycle, in slot order, so every
	// page's slots come out ascending.
	nodeNext := append([]int32(nil), si.nodeOff[:len(si.nodeOff)-1]...)
	objNext := append([]int32(nil), si.objOff[:len(si.objOff)-1]...)
	si.segStart = make([]int64, len(segIndex)+1)
	slot := int64(0)
	for i := range segIndex {
		si.segStart[i] = slot
		for _, id := range segIndex[i] {
			si.nodeOcc[nodeNext[id]] = slot
			nodeNext[id]++
			slot++
		}
		for _, obj := range segData[i] {
			si.objOcc[objNext[obj]] = slot
			objNext[obj]++
			slot += int64(si.ppo)
			si.dataPages += si.ppo
		}
	}
	si.segStart[len(segIndex)] = slot
	si.delays = si.childDelays()
	return si
}

// occurrences counts how often each of n pages airs across runs and
// returns the CSR offsets and an occurrence array of matching length. It
// panics if a page never airs.
func occurrences(runs [][]int32, n int, what, scheme string) ([]int32, []int64) {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("broadcast: %d %s occurrences per cycle in %s layout", total, what, scheme))
	}
	off := make([]int32, n+1)
	for _, run := range runs {
		for _, id := range run {
			off[id+1]++
		}
	}
	for id := 0; id < n; id++ {
		if off[id+1] == 0 {
			panic(fmt.Sprintf("broadcast: %s %d never on air in %s layout", what, id, scheme))
		}
		off[id+1] += off[id]
	}
	return off, make([]int64, total)
}

// nodeSlots returns the ascending cycle slots where node id's page airs.
func (si *SegmentedIndex) nodeSlots(id int) []int64 {
	return si.nodeOcc[si.nodeOff[id]:si.nodeOff[id+1]]
}

// objSlots returns the ascending cycle slots of object id's first data
// page.
func (si *SegmentedIndex) objSlots(id int) []int64 {
	return si.objOcc[si.objOff[id]:si.objOff[id+1]]
}

// childDelays builds the pointer table from the occurrence arrays, one
// merge pass over a parent's and a child's slots per child entry.
func (si *SegmentedIndex) childDelays() []int32 {
	f := si.tree.Flat()
	d := make([]int32, len(f.Key))
	for p := range si.tree.NumNodes() {
		occ := si.nodeSlots(p)
		first, end := f.EntRange(int32(p))
		for e := first; e < end; e++ {
			d[e] = commonDelay(occ, si.nodeSlots(int(f.Key[e])))
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
func (si *SegmentedIndex) NumIndexPages() int { return si.tree.NumNodes() }

// NumDataPages implements AirIndex: data-page slots per cycle, counting
// repetitions.
func (si *SegmentedIndex) NumDataPages() int { return si.dataPages }

// PagesPerObject implements AirIndex.
func (si *SegmentedIndex) PagesPerObject() int { return si.ppo }

// Replication implements AirIndex: how often the root airs per cycle.
func (si *SegmentedIndex) Replication() int { return len(si.nodeSlots(0)) }

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
	if nodeID < 0 || nodeID >= si.tree.NumNodes() {
		panic(fmt.Sprintf("broadcast: node %d out of range [0,%d)", nodeID, si.tree.NumNodes()))
	}
	return si.nextOcc(si.nodeSlots(nodeID), rel)
}

// ChildDelays implements AirIndex.
func (si *SegmentedIndex) ChildDelays() []int32 { return si.delays }

// NextObjectSlot implements AirIndex.
func (si *SegmentedIndex) NextObjectSlot(objectID int, rel int64) int64 {
	if objectID < 0 || objectID >= si.tree.Count {
		panic(fmt.Sprintf("broadcast: object %d out of range [0,%d)", objectID, si.tree.Count))
	}
	return si.nextOcc(si.objSlots(objectID), rel)
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
// array; any other scheduler's sequence is copied out as int32.
func dataRun(sched Scheduler, part []int32, weights []float64) []int32 {
	if _, ok := sched.(FlatScheduler); ok {
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
	objOrder := tree.Flat().ID
	n := len(objOrder)
	m := resolveM(p, tree.NumNodes(), n)
	base, rem := 0, 0
	if m > 0 {
		base, rem = n/m, n%m
	}

	allNodes := make([]int32, tree.NumNodes())
	for i := range allNodes {
		allNodes[i] = int32(i)
	}
	segIndex := make([][]int32, 0, m)
	segData := make([][]int32, 0, m)
	pos := 0
	for f := 0; f < m; f++ {
		sz := base
		if f < rem {
			sz++
		}
		segIndex = append(segIndex, allNodes)
		segData = append(segData, dataRun(sched, objOrder[pos:pos+sz:pos+sz], weights))
		pos += sz
	}
	return newSegmented(tree, p, scheme, segIndex, segData)
}
