package broadcast

import "tnnbcast/internal/rtree"

// Feed is what a receiver sees of one dataset's broadcast: arrival-time
// queries (air-index pointers) and page reads. A dedicated Channel is a
// Feed; so is one dataset's share of a time-multiplexed single channel
// (DualChannel), which is how the original single-channel environment of
// Zheng–Lee–Lee is modelled.
//
// A feed airs each cycle of its program on consecutive slots: if
// cycle-relative slot r of one cycle airs at feed slot t, then slot r+d of
// the same cycle (r+d < CycleLen) airs at t+d. A search relies on this to
// read a child's arrival from its parent's pointer table (the index's
// ChildDelays) as the parent's slot plus the delay, without asking
// NextNodeArrival. Channel, both halves of a DualChannel and every
// wrapper that passes the inner feed's schedule through keep it.
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

// DualChannel time-multiplexes two broadcast programs on one physical
// channel: each combined cycle transmits program S's full cycle followed
// by program R's full cycle. A client with a single radio experiences the
// two datasets exactly as two Feeds whose slots never collide — which is
// why the multi-channel algorithms run unchanged on it, just slower. Any
// AirIndex family can ride either half.
type DualChannel struct {
	idxS, idxR AirIndex
	offset     int64
}

// NewDualChannel multiplexes the two programs with the given phase offset.
func NewDualChannel(idxS, idxR AirIndex, offset int64) *DualChannel {
	l := idxS.CycleLen() + idxR.CycleLen()
	off := offset % l
	if off < 0 {
		off += l
	}
	return &DualChannel{idxS: idxS, idxR: idxR, offset: off}
}

// CycleLen returns the combined cycle length.
func (d *DualChannel) CycleLen() int64 {
	return d.idxS.CycleLen() + d.idxR.CycleLen()
}

// pageAt returns the page on air at slot t and the program that owns it
// (0: S, 1: R).
func (d *DualChannel) pageAt(t int64) (Page, int) {
	r := floorMod(t-d.offset, d.CycleLen())
	if lenS := d.idxS.CycleLen(); r >= lenS {
		return d.idxR.PageAt(r - lenS), 1
	}
	return d.idxS.PageAt(r), 0
}

// FeedS returns the S dataset's view of the channel.
func (d *DualChannel) FeedS() Feed { return &dualFeed{d: d, second: false} }

// FeedR returns the R dataset's view of the channel.
func (d *DualChannel) FeedR() Feed { return &dualFeed{d: d, second: true} }

// dualFeed is one program's share of a DualChannel.
type dualFeed struct {
	d      *DualChannel
	second bool // false: S segment [0, lenS); true: R segment [lenS, lenS+lenR)
}

func (f *dualFeed) idx() AirIndex {
	if f.second {
		return f.d.idxR
	}
	return f.d.idxS
}

func (f *dualFeed) segStart() int64 {
	if f.second {
		return f.d.idxS.CycleLen()
	}
	return 0
}

// Index implements Feed.
func (f *dualFeed) Index() AirIndex { return f.idx() }

// rel converts a channel slot to a combined-cycle-relative slot.
func (f *dualFeed) rel(t int64) int64 { return floorMod(t-f.d.offset, f.d.CycleLen()) }

// PageAt implements Feed.
func (f *dualFeed) PageAt(t int64) Page {
	r := f.rel(t) - f.segStart()
	return f.idx().PageAt(r) // panics when the slot is outside this segment
}

// ReadNode implements Feed.
func (f *dualFeed) ReadNode(t int64) (*rtree.Node, *PageFault) {
	p := f.PageAt(t)
	if p.Kind != IndexPage {
		panic("broadcast: slot carries a data page, not an index page")
	}
	return f.idx().Tree().Nodes()[p.NodeID], nil
}

// Fault implements Feed: a bare dualFeed is a perfect channel share.
func (f *dualFeed) Fault(int64) *PageFault { return nil }

// delayTo translates a program-cycle-relative next-occurrence query into a
// combined-cycle delay from channel position r. next answers the index's
// NextNodeSlot/NextObjectSlot contract for a program-relative position in
// [0, L).
func (f *dualFeed) delayTo(r int64, next func(rel int64) int64) int64 {
	idx := f.idx()
	L := idx.CycleLen()
	C := f.d.CycleLen()
	pRel := r - f.segStart()
	switch {
	case pRel < 0:
		// Still before this feed's segment: wait for the segment, then the
		// page's first occurrence of the program cycle.
		return -pRel + next(0)
	case pRel >= L:
		// Past this feed's segment: wait for the next combined cycle's
		// segment, then the first occurrence.
		return (C - pRel) + next(0)
	default:
		t := next(pRel)
		d := t - pRel
		if t >= L {
			// The occurrence wrapped into the next program cycle, which in
			// combined time starts after the other program's segment.
			d += C - L
		}
		return d
	}
}

// NextNodeArrival implements Feed.
func (f *dualFeed) NextNodeArrival(nodeID int, after int64) int64 {
	r := f.rel(after)
	return after + f.delayTo(r, func(rel int64) int64 {
		return f.idx().NextNodeSlot(nodeID, rel)
	})
}

// NextRootArrival implements Feed.
func (f *dualFeed) NextRootArrival(after int64) int64 {
	return f.NextNodeArrival(0, after)
}

// NextObjectArrival implements Feed.
func (f *dualFeed) NextObjectArrival(objectID int, after int64) int64 {
	r := f.rel(after)
	return after + f.delayTo(r, func(rel int64) int64 {
		return f.idx().NextObjectSlot(objectID, rel)
	})
}
