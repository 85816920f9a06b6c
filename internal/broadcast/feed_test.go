package broadcast

import (
	"testing"
)

func buildDual(t *testing.T) (fs, fr *Channel, progS, progR *SegmentedIndex) {
	t.Helper()
	p := DefaultParams()
	p.M = 2
	progS = buildTestProgram(t, 30, p)
	progR = buildTestProgram(t, 45, p)
	fs, fr = Multiplex(progS, progR, 11)
	return fs, fr, progS, progR
}

func TestDualChannelCycleLen(t *testing.T) {
	fs, fr, ps, pr := buildDual(t)
	for _, f := range []*Channel{fs, fr} {
		if f.period != ps.CycleLen()+pr.CycleLen() {
			t.Fatalf("cycle %d, want %d", f.period, ps.CycleLen()+pr.CycleLen())
		}
	}
}

func TestDualFeedsPartitionSlots(t *testing.T) {
	fs, fr, ps, _ := buildDual(t)

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

// TestDualFeedArrivalsAgreeWithScan checks both shares of a multiplexed
// channel, over every index family, against a scan of the slots the share
// owns: the root, node and object arrivals after every fifth slot of
// three periods, so inside and outside the share and across every wrap.
func TestDualFeedArrivalsAgreeWithScan(t *testing.T) {
	p := DefaultParams()
	p.M = 2
	treeS, treeR := buildTestTree(30, p), buildTestTree(45, p)
	sk := SkewedScheduler{Disks: 3, Ratio: 2}
	for _, spec := range []IndexSpec{
		{},
		{Sched: sk},
		{Scheme: SchemeDistributed},
		{Scheme: SchemeDistributed, Sched: sk},
	} {
		idxS, idxR := BuildIndex(treeS, p, spec), BuildIndex(treeR, p, spec)
		fs, fr := Multiplex(idxS, idxR, 11)
		l, lenS := fs.period, idxS.CycleLen()
		for half, f := range []Feed{fs, fr} {
			// The share's page at each position of the period, or nil.
			pages := make([]*Page, l)
			for s := int64(11); s < 11+l; s++ {
				if pos := floorMod(s-11, l); pos >= lenS == (half == 1) {
					pg := f.PageAt(s)
					pages[pos] = &pg
				}
			}
			scan := func(after int64, match func(Page) bool) int64 {
				for s := after; s < after+2*l; s++ {
					if pg := pages[floorMod(s-11, l)]; pg != nil && match(*pg) {
						return s
					}
				}
				t.Fatalf("%s half %d: nothing airs after %d", idxS.Scheme(), half, after)
				return -1
			}
			nodes, objs := f.Index().NumIndexPages(), f.Index().Tree().Count
			for after := -l; after < 2*l; after += 5 {
				id, obj := int(floorMod(after*7, int64(nodes))), int(floorMod(after*5, int64(objs)))
				for _, c := range []struct {
					kind      string
					got, want int64
				}{
					{"root", f.NextRootArrival(after), scan(after, func(pg Page) bool {
						return pg.Kind == IndexPage && pg.NodeID == 0
					})},
					{"node", f.NextNodeArrival(id, after), scan(after, func(pg Page) bool {
						return pg.Kind == IndexPage && pg.NodeID == id
					})},
					{"object", f.NextObjectArrival(obj, after), scan(after, func(pg Page) bool {
						return pg.Kind == DataPage && pg.ObjectID == obj && pg.Seq == 0
					})},
				} {
					if c.got != c.want {
						t.Fatalf("%s half %d: %s after %d at %d, want %d",
							idxS.Scheme(), half, c.kind, after, c.got, c.want)
					}
				}
			}
		}
	}
}

func TestDualFeedObjectRunsConsecutive(t *testing.T) {
	fs, _, _, _ := buildDual(t)
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
	fs, fr, _, _ := buildDual(t)
	for _, f := range []Feed{fs, fr} {
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
	fs, _, _, _ := buildDual(t)
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
