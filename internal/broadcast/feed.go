package broadcast

import "tnnbcast/internal/rtree"

// Feed is what a receiver sees of one dataset's broadcast: arrival-time
// queries (air-index pointers) and page reads. A Channel is a Feed,
// whether it is a dedicated channel or one dataset's share of a
// time-multiplexed single channel (Multiplex), which is how the original
// single-channel environment of Zheng–Lee–Lee is modelled.
//
// A feed airs each cycle of its program on consecutive slots: if
// cycle-relative slot r of one cycle airs at feed slot t, then slot r+d of
// the same cycle (r+d < CycleLen) airs at t+d. A search relies on this to
// read a child's arrival from its parent's pointer table (the index's
// ChildDelays) as the parent's slot plus the delay, without asking
// NextNodeArrival. A Channel, dedicated or a share, and every wrapper that
// passes the inner feed's schedule through keep it.
type Feed interface {
	// Index returns the broadcast program this feed transmits.
	Index() AirIndex
	// PageAt returns the page on air at slot t. For multiplexed feeds the
	// slot must belong to this feed's share of the channel.
	PageAt(t int64) Page
	// ReadNode returns the R-tree node on air at slot t, or the PageFault
	// that prevented its reception (lossy feeds only; perfect feeds always
	// return a nil fault). It panics if the slot does not carry one of
	// this feed's index pages. The node comes from the tree's pointer
	// view, which the first call rebuilds (rtree.Tree.Nodes).
	ReadNode(t int64) (*rtree.Node, *PageFault)
	// Fault reports the reception fault injected at slot t, nil for a
	// clean reception. Unlike ReadNode it applies to ANY slot kind —
	// receivers consult it when downloading data pages. Perfect feeds
	// return nil for every slot.
	Fault(t int64) *PageFault
	// NextNodeArrival returns the first slot >= after carrying index page
	// nodeID.
	NextNodeArrival(nodeID int, after int64) int64
	// NextRootArrival returns the first slot >= after carrying the root.
	NextRootArrival(after int64) int64
	// NextObjectArrival returns the first slot >= after at which the
	// object's first data page is on air. In a multiplexed feed the
	// object's pages are still consecutive (they lie within one segment).
	NextObjectArrival(objectID int, after int64) int64
}

// Channel satisfies Feed.
var _ Feed = (*Channel)(nil)
