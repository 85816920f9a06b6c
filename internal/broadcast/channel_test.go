package broadcast

import (
	"testing"
)

func TestChannelOffsetWraps(t *testing.T) {
	prog := buildTestProgram(t, 50, DefaultParams())
	c := prog.CycleLen()
	for _, off := range []int64{0, 1, c - 1, c, c + 7, -1, -c - 3} {
		ch := NewChannel(prog, off)
		// The page at slot off must be the cycle's first page (index root).
		pg := ch.PageAt(off)
		if pg.Kind != IndexPage || pg.NodeID != 0 {
			t.Errorf("offset %d: slot %d carries %+v, want index root", off, off, pg)
		}
	}
}

func TestNextNodeArrivalCorrectAndMinimal(t *testing.T) {
	p := DefaultParams()
	p.M = 3
	prog := buildTestProgram(t, 60, p)
	ch := NewChannel(prog, 17)

	// Exhaustively verify against a linear scan over two cycles for a
	// sample of nodes and query times.
	scanNext := func(nodeID int, after int64) int64 {
		for s := after; s < after+2*prog.CycleLen(); s++ {
			pg := ch.PageAt(s)
			if pg.Kind == IndexPage && pg.NodeID == nodeID {
				return s
			}
		}
		t.Fatalf("node %d not found after %d", nodeID, after)
		return -1
	}
	for nodeID := 0; nodeID < prog.NumIndexPages(); nodeID += 3 {
		for _, after := range []int64{0, 5, 100, prog.CycleLen() - 1, prog.CycleLen() + 11} {
			got := ch.NextNodeArrival(nodeID, after)
			want := scanNext(nodeID, after)
			if got != want {
				t.Fatalf("NextNodeArrival(%d, %d) = %d, want %d", nodeID, after, got, want)
			}
			if got < after {
				t.Fatalf("arrival %d before after %d", got, after)
			}
		}
	}
}

func TestNextObjectArrivalCorrect(t *testing.T) {
	p := DefaultParams()
	p.M = 2
	prog := buildTestProgram(t, 30, p)
	ch := NewChannel(prog, 5)
	ppo := int64(p.PagesPerObject())

	scanNext := func(objID int, after int64) int64 {
		for s := after; s < after+2*prog.CycleLen(); s++ {
			pg := ch.PageAt(s)
			if pg.Kind == DataPage && pg.ObjectID == objID && pg.Seq == 0 {
				return s
			}
		}
		t.Fatalf("object %d not found after %d", objID, after)
		return -1
	}
	for objID := 0; objID < 30; objID += 4 {
		for _, after := range []int64{0, 33, prog.CycleLen() - 2} {
			got := ch.NextObjectArrival(objID, after)
			want := scanNext(objID, after)
			if got != want {
				t.Fatalf("NextObjectArrival(%d,%d) = %d, want %d", objID, after, got, want)
			}
			// The full object run occupies consecutive slots.
			for k := int64(0); k < ppo; k++ {
				pg := ch.PageAt(got + k)
				if pg.Kind != DataPage || pg.ObjectID != objID || pg.Seq != int(k) {
					t.Fatalf("object %d run broken at +%d: %+v", objID, k, pg)
				}
			}
		}
	}
}

func TestNextRootArrival(t *testing.T) {
	prog := buildTestProgram(t, 40, DefaultParams())
	ch := NewChannel(prog, 123)
	got := ch.NextRootArrival(0)
	pg := ch.PageAt(got)
	if pg.Kind != IndexPage || pg.NodeID != 0 {
		t.Fatalf("NextRootArrival points at %+v", pg)
	}
	// Roots appear at most one index-replication period apart.
	period := prog.CycleLen() / int64(prog.Replication())
	got2 := ch.NextRootArrival(got + 1)
	if got2-got > period+int64(prog.NumIndexPages()) {
		t.Errorf("root gap %d too large", got2-got)
	}
}

func TestReadNode(t *testing.T) {
	prog := buildTestProgram(t, 40, DefaultParams())
	ch := NewChannel(prog, 9)
	slot := ch.NextNodeArrival(3, 100)
	n, _ := ch.ReadNode(slot)
	if n.ID != 3 {
		t.Fatalf("ReadNode returned node %d, want 3", n.ID)
	}
	// Reading a data slot must panic.
	dataSlot := ch.NextObjectArrival(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("ReadNode on data slot should panic")
		}
	}()
	ch.ReadNode(dataSlot)
}

func TestArrivalPanicsOutOfRange(t *testing.T) {
	prog := buildTestProgram(t, 10, DefaultParams())
	ch := NewChannel(prog, 0)
	for _, f := range []func(){
		func() { ch.NextNodeArrival(-1, 0) },
		func() { ch.NextNodeArrival(prog.NumIndexPages(), 0) },
		func() { ch.NextObjectArrival(-1, 0) },
		func() { ch.NextObjectArrival(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Waiting can never exceed one full cycle for any page.
func TestArrivalWithinOneCycle(t *testing.T) {
	p := DefaultParams()
	p.M = 3
	prog := buildTestProgram(t, 45, p)
	ch := NewChannel(prog, 31)
	for nodeID := 0; nodeID < prog.NumIndexPages(); nodeID++ {
		for _, after := range []int64{0, 7, 1000} {
			got := ch.NextNodeArrival(nodeID, after)
			if got-after >= prog.CycleLen() {
				t.Fatalf("node %d waits %d ≥ cycle %d", nodeID, got-after, prog.CycleLen())
			}
		}
	}
	for objID := 0; objID < 45; objID++ {
		got := ch.NextObjectArrival(objID, 3)
		if got-3 >= prog.CycleLen() {
			t.Fatalf("object %d waits ≥ cycle", objID)
		}
	}
}
