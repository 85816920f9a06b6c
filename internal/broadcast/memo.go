package broadcast

import (
	"fmt"

	"tnnbcast/internal/rtree"
)

// MemoFeed wraps a Feed with small memo layers for the three read paths a
// receiver exercises — arrival queries for index pages and objects, and
// page materialization. It exists for the shared per-slot fan-out of a
// multi-client session: when hundreds of clients in one worker download
// the same page at the same slot, each asks the identical arrival
// questions about the page's children, and the underlying index (a replica
// scan for the preorder Program, a binary search over occurrence lists for
// a SegmentedIndex) answers each from scratch. The memo computes each
// answer once per (worker, page, cycle window) and serves the rest from a
// flat array.
//
// Most child arrivals never reach the memo: a search reads them from the
// parent's pointer table (AirIndex.ChildDelays). The node windows serve
// the arrivals the table cannot: roots, re-files after a fault, and the
// children of nodes a distributed index replicates, whose delay differs
// between the parent's broadcasts.
//
// Arrival answers are cached as validity windows, not points: if the first
// on-air occurrence of a page at-or-after slot `lo` is `hi`, then for
// EVERY query slot in [lo, hi] the answer is `hi` — occurrences are
// discrete, so no occurrence lies strictly inside the window. One cached
// window therefore serves every client that asks between two consecutive
// broadcasts of the page, which on a sparse timeline is almost all of
// them. The memo is correct for any AirIndex family and any Feed wrapper
// (Channel, DualChannel segment) because it relies only on Feed's
// next-occurrence contract.
//
// Faults are never cached (see ReadNode). Over a FaultFeed the memo keeps
// only a lossMark: the last slot whose loss state it evaluated, and that
// state. A worker's reads mostly step forward a few slots at a time, and
// the mark bounds each Gilbert–Elliott scan to that gap; the answer is
// the bare FaultFeed's, because the state at a slot depends on (seed,
// slot) alone.
//
// A MemoFeed must wrap a feed whose program does not change for the
// memo's lifetime (Channel.Reset invalidates it), and it is NOT safe for
// concurrent use — the session engine creates one per worker per channel.
type MemoFeed struct {
	f Feed
	// faults is f when f is a *FaultFeed, else nil; mark bounds its loss
	// scans.
	faults *FaultFeed
	mark   lossMark
	tree   *rtree.Tree
	nodes  []arrWindow // per index page: cached [lo, hi] arrival window
	objs   []arrWindow // per object: cached first-data-page arrival window
	pages  [pageMemoSlots]pageMemo
}

// arrWindow caches one arrival answer: for any query slot in [lo, hi] the
// next occurrence is hi. lo > hi means empty.
type arrWindow struct{ lo, hi int64 }

type pageMemo struct {
	slot int64
	page Page
	ok   bool
}

// pageMemoSlots sizes the direct-mapped page cache (power of two). Page
// reads cluster on the dispatch slot — consecutive same-slot downloads by
// fanned-out clients — so a small table captures the reuse.
const pageMemoSlots = 1024

// NewMemoFeed wraps f. The allocation is proportional to the program's
// distinct pages and objects and is meant to be amortized over a whole
// session run.
func NewMemoFeed(f Feed) *MemoFeed {
	idx := f.Index()
	m := &MemoFeed{
		f:     f,
		tree:  idx.Tree(),
		nodes: make([]arrWindow, idx.NumIndexPages()),
		objs:  make([]arrWindow, idx.Tree().Count),
	}
	m.faults, _ = f.(*FaultFeed)
	for i := range m.nodes {
		m.nodes[i] = arrWindow{lo: 1, hi: 0}
	}
	for i := range m.objs {
		m.objs[i] = arrWindow{lo: 1, hi: 0}
	}
	return m
}

// MemoFeed implements Feed.
var _ Feed = (*MemoFeed)(nil)

// Index implements Feed.
func (m *MemoFeed) Index() AirIndex { return m.f.Index() }

// PageAt implements Feed.
func (m *MemoFeed) PageAt(t int64) Page {
	e := &m.pages[uint64(t)%pageMemoSlots]
	if e.ok && e.slot == t {
		return e.page
	}
	p := m.f.PageAt(t)
	*e = pageMemo{slot: t, page: p, ok: true}
	return p
}

// ReadNode implements Feed. Faults are evaluated for slot t on every read
// — never cached and never skipped. MemoFeed serves the node from the
// tree via the memoized page descriptor (bypassing the inner ReadNode), so
// without this check a fault injected below the memo would silently
// vanish for every client in the worker; and caching a fault would be
// just as wrong, because the same page read at a later slot is an
// independent reception that may well succeed. Only schedule truth (page
// descriptors, arrival windows) is memoizable — it is fault-independent.
// The loss mark is not a cached fault: it only shortens the scan that
// evaluates slot t.
func (m *MemoFeed) ReadNode(t int64) (*rtree.Node, *PageFault) {
	if pf := m.Fault(t); pf != nil {
		return nil, pf
	}
	p := m.PageAt(t)
	if p.Kind != IndexPage {
		panic(fmt.Sprintf("broadcast: slot %d carries %v, not an index page", t, p.Kind))
	}
	return m.tree.Nodes[p.NodeID], nil
}

// Fault implements Feed: evaluated per call for the same reason ReadNode
// re-checks — fault state is per-reception, not per-page — with a
// FaultFeed's loss scan bounded by, and advancing, the memo's mark.
func (m *MemoFeed) Fault(t int64) *PageFault {
	if m.faults != nil {
		return m.faults.fault(t, &m.mark)
	}
	return m.f.Fault(t)
}

// NextNodeArrival implements Feed.
func (m *MemoFeed) NextNodeArrival(nodeID int, after int64) int64 {
	w := &m.nodes[nodeID]
	if after >= w.lo && after <= w.hi {
		return w.hi
	}
	t := m.f.NextNodeArrival(nodeID, after)
	*w = arrWindow{lo: after, hi: t}
	return t
}

// NextRootArrival implements Feed.
func (m *MemoFeed) NextRootArrival(after int64) int64 {
	return m.NextNodeArrival(0, after)
}

// NextObjectArrival implements Feed.
func (m *MemoFeed) NextObjectArrival(objectID int, after int64) int64 {
	w := &m.objs[objectID]
	if after >= w.lo && after <= w.hi {
		return w.hi
	}
	t := m.f.NextObjectArrival(objectID, after)
	*w = arrWindow{lo: after, hi: t}
	return t
}
