package broadcast

import "tnnbcast/internal/rtree"

// MemoFeed is a per-worker loss mark over a Feed, not a cache. Every
// arrival and page query passes straight through: a search reads its
// children's arrivals from the parent's pointer table
// (AirIndex.ChildDelays), and the roots, objects and re-files it still
// asks for cost about as much through the inner feed as any memo of them
// would.
//
// What the wrapper keeps is the loss mark. Over a FaultFeed it holds the
// last slot whose loss state it evaluated, and that state. A worker's
// reads mostly step forward a few slots at a time, and the mark bounds
// each Gilbert–Elliott scan to that gap; the answer is the bare
// FaultFeed's, because the state at a slot depends on (seed, slot) alone.
// Over any other feed the wrapper only forwards.
//
// NewMemoFeed allocates one small struct whatever the program's size. A
// MemoFeed is NOT safe for concurrent use — the session engine creates
// one per worker per channel.
type MemoFeed struct {
	f Feed
	// faults is f when f is a *FaultFeed, else nil; mark bounds its loss
	// scans.
	faults *FaultFeed
	mark   lossMark
}

// NewMemoFeed wraps f.
func NewMemoFeed(f Feed) *MemoFeed {
	m := &MemoFeed{f: f}
	m.faults, _ = f.(*FaultFeed)
	return m
}

// MemoFeed implements Feed.
var _ Feed = (*MemoFeed)(nil)

// Index implements Feed.
func (m *MemoFeed) Index() AirIndex { return m.f.Index() }

// PageAt implements Feed.
func (m *MemoFeed) PageAt(t int64) Page { return m.f.PageAt(t) }

// ReadNode implements Feed. Over a FaultFeed the fault at slot t is
// evaluated through the mark before the inner read — never cached and
// never skipped; the mark only shortens the scan that evaluates slot t.
func (m *MemoFeed) ReadNode(t int64) (*rtree.Node, *PageFault) {
	if m.faults == nil {
		return m.f.ReadNode(t)
	}
	if pf := m.faults.fault(t, &m.mark); pf != nil {
		return nil, pf
	}
	return m.faults.inner.ReadNode(t)
}

// Fault implements Feed: evaluated per call — fault state is
// per-reception, not per-page — with a FaultFeed's loss scan bounded by,
// and advancing, the mark.
func (m *MemoFeed) Fault(t int64) *PageFault {
	if m.faults != nil {
		return m.faults.fault(t, &m.mark)
	}
	return m.f.Fault(t)
}

// NextNodeArrival implements Feed.
func (m *MemoFeed) NextNodeArrival(nodeID int, after int64) int64 {
	return m.f.NextNodeArrival(nodeID, after)
}

// NextRootArrival implements Feed.
func (m *MemoFeed) NextRootArrival(after int64) int64 {
	return m.f.NextRootArrival(after)
}

// NextObjectArrival implements Feed.
func (m *MemoFeed) NextObjectArrival(objectID int, after int64) int64 {
	return m.f.NextObjectArrival(objectID, after)
}
