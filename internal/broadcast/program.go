package broadcast

import (
	"fmt"
	"math"

	"tnnbcast/internal/rtree"
)

// PageKind discriminates the two page types of a broadcast program.
type PageKind int

const (
	// IndexPage carries one R-tree node (MBRs of the children plus their
	// arrival-time pointers; for leaves, the point coordinates plus data
	// pointers).
	IndexPage PageKind = iota
	// DataPage carries a fragment of one data object's content.
	DataPage
)

func (k PageKind) String() string {
	if k == IndexPage {
		return "index"
	}
	return "data"
}

// Page describes what is on air during one slot.
type Page struct {
	Kind     PageKind
	NodeID   int // for IndexPage: preorder ID of the R-tree node
	ObjectID int // for DataPage: the object whose content this is
	Seq      int // for DataPage: fragment number within the object
}

// Program is the paper's broadcast program for one dataset on one channel:
// a packed R-tree serialized in depth-first (preorder) order,
// (1, m)-interleaved with the data objects, repeated cyclically. It is the
// preorder implementation of the AirIndex interface; BuildDistributed
// builds the alternative distributed-index family.
//
// Layout of one cycle (m fractions):
//
//	[index][fraction 0][index][fraction 1]...[index][fraction m-1]
//
// where [index] is every index page in preorder and fraction f carries an
// equal share of the objects, each object occupying PagesPerObject
// consecutive data pages. Objects appear in the order their entries occur
// in the preorder leaf walk, so data order follows index order.
type Program struct {
	tree   *rtree.Tree
	params Params

	m          int     // resolved interleaving factor
	indexPages int     // number of index pages (= number of R-tree nodes)
	objOrder   []int32 // object IDs in broadcast order: the tree's Flat.ID, shared
	objPos     []int32 // objPos[objectID] = position in objOrder
	fracStart  []int   // fracStart[f] = first object position of fraction f; len m+1
	segStart   []int64 // segStart[f] = cycle slot where replication f's index begins; len m+1 (last = cycle length)
	ppo        int     // pages per object
	delays     []int32 // pointer table, per Flat child entry (ChildDelays)
}

// Program implements AirIndex.
var _ AirIndex = (*Program)(nil)

// BuildProgram serializes tree into a broadcast program. It panics on
// invalid Params (use Params.Validate to check first) and on trees whose
// fanout exceeds what a page can hold.
func BuildProgram(tree *rtree.Tree, p Params) *Program {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if tree.NodeCap > p.NodeCap() || tree.LeafCap > p.LeafCap() {
		panic(fmt.Sprintf("broadcast: tree capacities (%d,%d) exceed page capacities (%d,%d)",
			tree.NodeCap, tree.LeafCap, p.NodeCap(), p.LeafCap()))
	}

	pr := &Program{
		tree:       tree,
		params:     p,
		indexPages: tree.NumNodes(),
		ppo:        p.PagesPerObject(),
	}

	// Objects in preorder leaf-walk order: the Flat SoA image's leaf ID
	// array.
	pr.objOrder = tree.Flat().ID
	pr.objPos = make([]int32, tree.Count)
	for pos, id := range pr.objOrder {
		pr.objPos[id] = int32(pos)
	}

	n := len(pr.objOrder)
	m := resolveM(p, pr.indexPages, n)
	pr.m = m

	// Balanced object partition: fraction f gets n/m objects plus one of
	// the first n%m remainders.
	pr.fracStart = make([]int, m+1)
	base, rem := 0, 0
	if m > 0 {
		base, rem = n/m, n%m
	}
	for f := 0; f < m; f++ {
		sz := base
		if f < rem {
			sz++
		}
		pr.fracStart[f+1] = pr.fracStart[f] + sz
	}

	// Segment starts.
	pr.segStart = make([]int64, m+1)
	for f := 0; f < m; f++ {
		fracLen := int64(pr.fracStart[f+1]-pr.fracStart[f]) * int64(pr.ppo)
		pr.segStart[f+1] = pr.segStart[f] + int64(pr.indexPages) + fracLen
	}
	pr.delays = preorderDelays(tree.Flat())
	return pr
}

// preorderDelays is the pointer table of a layout whose every index run
// airs all nodes in preorder on consecutive slots: child c of node p airs
// c-p slots after p in the same run, so no entry is 0.
func preorderDelays(f *rtree.Flat) []int32 {
	d := make([]int32, len(f.Key))
	for p := range f.EntFirst {
		first, end := f.EntRange(int32(p))
		for e := first; e < end; e++ {
			d[e] = f.Key[e] - int32(p)
		}
	}
	return d
}

// resolveM resolves the (1, m) interleaving factor for a preorder program
// of indexPages index pages over n objects: the explicit Params.M, or the
// Imielinski-optimal value, clamped so every fraction holds at least one
// object (and to 1 for an empty dataset, which needs no replication).
// BuildProgram and BuildScheduled share this so the two preorder layouts
// cannot drift.
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

// Scheme implements AirIndex.
func (pr *Program) Scheme() string { return "preorder" }

// Tree implements AirIndex.
func (pr *Program) Tree() *rtree.Tree { return pr.tree }

// Params implements AirIndex.
func (pr *Program) Params() Params { return pr.params }

// CycleLen returns the number of slots in one broadcast cycle.
func (pr *Program) CycleLen() int64 { return pr.segStart[pr.m] }

// M returns the resolved (1, m) interleaving factor.
func (pr *Program) M() int { return pr.m }

// Replication implements AirIndex: the root airs once per replication.
func (pr *Program) Replication() int { return pr.m }

// NumIndexPages returns the number of index pages (one per R-tree node).
func (pr *Program) NumIndexPages() int { return pr.indexPages }

// NumDataPages returns the number of data pages in one cycle.
func (pr *Program) NumDataPages() int { return len(pr.objOrder) * pr.ppo }

// PagesPerObject returns how many consecutive pages one object occupies.
func (pr *Program) PagesPerObject() int { return pr.ppo }

// PageAt returns the page on air at cycle-relative slot s ∈ [0, CycleLen).
func (pr *Program) PageAt(s int64) Page {
	if s < 0 || s >= pr.CycleLen() {
		panic(fmt.Sprintf("broadcast: slot %d outside cycle [0,%d)", s, pr.CycleLen()))
	}
	// Locate the segment (linear scan is fine: m is small, and this is a
	// tracing/debugging helper, not the hot path).
	f := 0
	for f+1 <= pr.m && pr.segStart[f+1] <= s {
		f++
	}
	off := s - pr.segStart[f]
	if off < int64(pr.indexPages) {
		return Page{Kind: IndexPage, NodeID: int(off)}
	}
	dataOff := off - int64(pr.indexPages)
	objIdx := pr.fracStart[f] + int(dataOff/int64(pr.ppo))
	return Page{
		Kind:     DataPage,
		ObjectID: int(pr.objOrder[objIdx]),
		Seq:      int(dataOff % int64(pr.ppo)),
	}
}

// NextNodeSlot implements AirIndex. The index is replicated m times per
// cycle; the replicas' cycle-relative slots segStart[f]+nodeID are
// ascending in f, so the earliest at-or-after rel is the first with
// segStart[f] >= rel - nodeID (wrapping to replica 0 of the next cycle
// when none qualifies). This sits on the query hot path, once per
// enqueued candidate.
func (pr *Program) NextNodeSlot(nodeID int, rel int64) int64 {
	if nodeID < 0 || nodeID >= pr.indexPages {
		panic(fmt.Sprintf("broadcast: node %d out of range [0,%d)", nodeID, pr.indexPages))
	}
	base := rel - int64(nodeID)
	for _, s := range pr.segStart[:pr.m] {
		if s >= base {
			return s + int64(nodeID)
		}
	}
	return pr.CycleLen() + int64(nodeID)
}

// ChildDelays implements AirIndex.
func (pr *Program) ChildDelays() []int32 { return pr.delays }

// NextObjectSlot implements AirIndex: each object airs once per cycle at a
// fixed slot.
func (pr *Program) NextObjectSlot(objectID int, rel int64) int64 {
	if objectID < 0 || objectID >= len(pr.objPos) {
		panic(fmt.Sprintf("broadcast: object %d out of range [0,%d)", objectID, len(pr.objPos)))
	}
	want := pr.objectSlotInCycle(int(pr.objPos[objectID]))
	if want < rel {
		want += pr.CycleLen()
	}
	return want
}

// objFraction returns which fraction the object at broadcast position pos
// belongs to.
func (pr *Program) objFraction(pos int) int {
	// Binary search over fracStart.
	lo, hi := 0, pr.m-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pr.fracStart[mid+1] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// objectSlotInCycle returns the cycle-relative slot of the first data page
// of the object at broadcast position pos.
func (pr *Program) objectSlotInCycle(pos int) int64 {
	f := pr.objFraction(pos)
	return pr.segStart[f] + int64(pr.indexPages) + int64(pos-pr.fracStart[f])*int64(pr.ppo)
}
