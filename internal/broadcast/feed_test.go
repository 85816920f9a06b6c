package broadcast

import (
	"testing"
)

func buildDual(t *testing.T) (*DualChannel, *SegmentedIndex, *SegmentedIndex) {
	t.Helper()
	p := DefaultParams()
	p.M = 2
	progS := buildTestProgram(t, 30, p)
	progR := buildTestProgram(t, 45, p)
	return NewDualChannel(progS, progR, 11), progS, progR
}

func TestDualChannelCycleLen(t *testing.T) {
	d, ps, pr := buildDual(t)
	if d.CycleLen() != ps.CycleLen()+pr.CycleLen() {
		t.Fatalf("cycle %d, want %d", d.CycleLen(), ps.CycleLen()+pr.CycleLen())
	}
}

func TestDualFeedsPartitionSlots(t *testing.T) {
	d, ps, _ := buildDual(t)
	fs, fr := d.FeedS(), d.FeedR()

	// Within one combined cycle starting at the offset, the first lenS
	// slots belong to S and the rest to R; reading across the boundary
	// panics on the wrong feed.
	base := int64(11) // the offset
	pg := fs.PageAt(base)
	if pg.Kind != IndexPage || pg.NodeID != 0 {
		t.Fatalf("combined cycle does not start with S root: %+v", pg)
	}
	pgR := fr.PageAt(base + ps.CycleLen())
	if pgR.Kind != IndexPage || pgR.NodeID != 0 {
		t.Fatalf("R segment does not start with R root: %+v", pgR)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reading an R slot through the S feed should panic")
			}
		}()
		fs.PageAt(base + ps.CycleLen())
	}()
}

func TestDualFeedArrivalsAgreeWithScan(t *testing.T) {
	d, ps, pr := buildDual(t)
	fs, fr := d.FeedS(), d.FeedR()
	l := d.CycleLen()

	inSSegment := func(t64 int64) bool {
		r := (t64 - 11) % l
		if r < 0 {
			r += l
		}
		return r < ps.CycleLen()
	}

	scanNext := func(feed Feed, sSide bool, nodeID int, after int64) int64 {
		for s := after; s < after+2*l; s++ {
			if inSSegment(s) != sSide {
				continue
			}
			pg := feed.PageAt(s)
			if pg.Kind == IndexPage && pg.NodeID == nodeID {
				return s
			}
		}
		t.Fatalf("node %d not found", nodeID)
		return -1
	}

	for _, after := range []int64{0, 7, 500, l - 1, l + 13} {
		for nodeID := 0; nodeID < ps.NumIndexPages(); nodeID += 5 {
			got := fs.NextNodeArrival(nodeID, after)
			want := scanNext(fs, true, nodeID, after)
			if got != want {
				t.Fatalf("S node %d after %d: got %d, want %d", nodeID, after, got, want)
			}
		}
		for nodeID := 0; nodeID < pr.NumIndexPages(); nodeID += 7 {
			got := fr.NextNodeArrival(nodeID, after)
			want := scanNext(fr, false, nodeID, after)
			if got != want {
				t.Fatalf("R node %d after %d: got %d, want %d", nodeID, after, got, want)
			}
		}
	}
}

func TestDualFeedObjectRunsConsecutive(t *testing.T) {
	d, _, _ := buildDual(t)
	fs := d.FeedS()
	ppo := int64(fs.Index().PagesPerObject())
	for obj := 0; obj < 30; obj += 6 {
		start := fs.NextObjectArrival(obj, 3)
		for k := int64(0); k < ppo; k++ {
			pg := fs.PageAt(start + k)
			if pg.Kind != DataPage || pg.ObjectID != obj || pg.Seq != int(k) {
				t.Fatalf("object %d run broken at +%d: %+v", obj, k, pg)
			}
		}
	}
}

func TestDualFeedRootArrival(t *testing.T) {
	d, _, _ := buildDual(t)
	for _, f := range []Feed{d.FeedS(), d.FeedR()} {
		got := f.NextRootArrival(123)
		if got < 123 {
			t.Fatal("root arrival before 'after'")
		}
		if n, _ := f.ReadNode(got); n.ID != 0 {
			t.Fatalf("root arrival carries node %d", n.ID)
		}
	}
}

func TestDualFeedPanicsOutOfRange(t *testing.T) {
	d, _, _ := buildDual(t)
	fs := d.FeedS()
	for _, fn := range []func(){
		func() { fs.NextNodeArrival(-1, 0) },
		func() { fs.NextNodeArrival(1<<20, 0) },
		func() { fs.NextObjectArrival(-1, 0) },
		func() { fs.NextObjectArrival(1<<20, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
