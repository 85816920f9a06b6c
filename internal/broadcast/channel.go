package broadcast

import (
	"fmt"

	"tnnbcast/internal/rtree"
)

// Channel is one wireless broadcast channel transmitting an AirIndex
// (a broadcast program of any index family) in a loop, shifted by a phase
// offset. Slot t of the channel carries the program's cycle-relative page
// (t - Offset) mod CycleLen.
//
// A Channel exposes only what a real receiver could do: ask when a page
// will next be on air (pointers in a broadcast R-tree are arrival times)
// and read the page during its slot. There is no random access.
type Channel struct {
	idx    AirIndex
	offset int64
}

// NewChannel wraps idx on a channel whose cycle starts at slot offset
// (i.e. the first page of a cycle is on air at offset, modulo the cycle
// length). Any offset, including negative, is accepted.
func NewChannel(idx AirIndex, offset int64) *Channel {
	ch := new(Channel)
	ch.Reset(idx, offset)
	return ch
}

// Reset reinitializes the channel in place for a new program and phase
// offset, equivalent to NewChannel but reusing the allocation; Air.Rephase
// re-phases its channels with it.
func (ch *Channel) Reset(idx AirIndex, offset int64) {
	c := idx.CycleLen()
	off := offset % c
	if off < 0 {
		off += c
	}
	ch.idx, ch.offset = idx, off
}

// Index returns the underlying broadcast program.
func (ch *Channel) Index() AirIndex { return ch.idx }

// rel converts channel slot t to a cycle-relative slot.
func (ch *Channel) rel(t int64) int64 { return floorMod(t-ch.offset, ch.idx.CycleLen()) }

// PageAt returns the page on air at channel slot t.
func (ch *Channel) PageAt(t int64) Page { return ch.idx.PageAt(ch.rel(t)) }

// ReadNode returns the R-tree node broadcast at slot t. It panics if slot t
// carries a data page — callers must only read index pages at their
// scheduled arrivals. A bare Channel is a perfect medium: the fault is
// always nil (wrap in a FaultFeed for a lossy one).
func (ch *Channel) ReadNode(t int64) (*rtree.Node, *PageFault) {
	p := ch.PageAt(t)
	if p.Kind != IndexPage {
		panic(fmt.Sprintf("broadcast: slot %d carries %v, not an index page", t, p.Kind))
	}
	return ch.idx.Tree().Nodes()[p.NodeID], nil
}

// Fault implements Feed: a bare Channel never faults.
func (ch *Channel) Fault(int64) *PageFault { return nil }

// NextNodeArrival returns the first slot >= after at which index page
// nodeID is on air: one rel() computation plus the index's cycle-relative
// answer — this sits on the query hot path, once per enqueued candidate.
func (ch *Channel) NextNodeArrival(nodeID int, after int64) int64 {
	r := ch.rel(after)
	return after + ch.idx.NextNodeSlot(nodeID, r) - r
}

// NextRootArrival returns the first slot >= after carrying the index root.
func (ch *Channel) NextRootArrival(after int64) int64 {
	return ch.NextNodeArrival(0, after)
}

// NextObjectArrival returns the first slot >= after at which the first data
// page of objectID is on air. The object's PagesPerObject pages occupy
// consecutive slots from the returned value.
func (ch *Channel) NextObjectArrival(objectID int, after int64) int64 {
	r := ch.rel(after)
	return after + ch.idx.NextObjectSlot(objectID, r) - r
}
