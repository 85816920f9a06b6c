package broadcast

import (
	"fmt"

	"tnnbcast/internal/rtree"
)

// Channel is one broadcast program's share of a wireless channel that
// repeats with a period, shifted by a phase offset: positions
// [start, start+length) of every period carry the program's cycle in
// order, so slot t carries the program's cycle-relative page
// (t - offset) mod period - start when that is in [0, length). A
// dedicated channel is the whole period: start 0 and period = length =
// the cycle length. Multiplex builds the two shares of one
// time-multiplexed channel.
//
// A Channel exposes only what a real receiver could do: ask when a page
// will next be on air (pointers in a broadcast R-tree are arrival times)
// and read the page during its slot. There is no random access.
type Channel struct {
	idx    AirIndex
	offset int64 // the slot at which a period starts, in [0, period)
	start  int64 // the share's first position in the period
	length int64 // the share's length: the program's cycle length
	period int64
}

// NewChannel wraps idx on a dedicated channel whose cycle starts at slot
// offset (i.e. the first page of a cycle is on air at offset, modulo the
// cycle length). Any offset, including negative, is accepted.
func NewChannel(idx AirIndex, offset int64) *Channel {
	l := idx.CycleLen()
	return &Channel{idx: idx, offset: floorMod(offset, l), length: l, period: l}
}

// Multiplex time-multiplexes two programs on one physical channel whose
// period starts at slot offset (any offset is accepted): each period airs
// idxS's full cycle, then idxR's. It returns the two programs' shares. A
// client with a single radio experiences the two datasets exactly as two
// Feeds whose slots never collide, which is why the multi-channel
// algorithms run unchanged on it, just slower. Any AirIndex family can
// ride either share.
func Multiplex(idxS, idxR AirIndex, offset int64) (s, r *Channel) {
	ls, lr := idxS.CycleLen(), idxR.CycleLen()
	off := floorMod(offset, ls+lr)
	return &Channel{idx: idxS, offset: off, length: ls, period: ls + lr},
		&Channel{idx: idxR, offset: off, start: ls, length: lr, period: ls + lr}
}

// Index returns the underlying broadcast program.
func (ch *Channel) Index() AirIndex { return ch.idx }

// rel converts channel slot t to a position in the share: the program's
// cycle-relative slot when it is in [0, length).
func (ch *Channel) rel(t int64) int64 { return floorMod(t-ch.offset, ch.period) - ch.start }

// PageAt returns the page on air at channel slot t. It panics if the slot
// is outside the share.
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

// enter returns the share position from which to search for the first
// page on air at a slot >= after, and the slots until that position airs:
// after's own position inside the share, else the next share's first.
func (ch *Channel) enter(after int64) (r, wait int64) {
	r = ch.rel(after)
	switch {
	case r < 0:
		return 0, -r
	case r >= ch.length:
		return 0, ch.period - r
	}
	return r, 0
}

// lift converts a program slot the index found from a share position, in
// [0, 2*length), to share time: a slot of the next program cycle airs in
// the next period's share, period - length slots later.
func (ch *Channel) lift(s int64) int64 {
	if s >= ch.length {
		s += ch.period - ch.length
	}
	return s
}

// NextNodeArrival returns the first slot >= after at which index page
// nodeID is on air: one position computation plus the index's
// cycle-relative answer — this sits on the query hot path, once per
// enqueued candidate the pointer table cannot serve.
func (ch *Channel) NextNodeArrival(nodeID int, after int64) int64 {
	r, wait := ch.enter(after)
	return after + wait + ch.lift(ch.idx.NextNodeSlot(nodeID, r)) - r
}

// NextRootArrival returns the first slot >= after carrying the index root.
func (ch *Channel) NextRootArrival(after int64) int64 {
	return ch.NextNodeArrival(0, after)
}

// NextObjectArrival returns the first slot >= after at which the first data
// page of objectID is on air. The object's PagesPerObject pages occupy
// consecutive slots from the returned value, within one share.
func (ch *Channel) NextObjectArrival(objectID int, after int64) int64 {
	r, wait := ch.enter(after)
	return after + wait + ch.lift(ch.idx.NextObjectSlot(objectID, r)) - r
}
