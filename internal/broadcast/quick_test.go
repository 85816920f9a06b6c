package broadcast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// Property tests over randomized programs: for arbitrary dataset sizes,
// page capacities and interleave factors, the broadcast schedule must be a
// valid permutation of the program's content and the arrival queries must
// agree with a linear scan.

func TestQuickProgramInvariants(t *testing.T) {
	f := func(seed int64, nRaw, pageRaw, mRaw uint8) bool {
		n := int(nRaw)%150 + 1
		pageCap := []int{64, 128, 256, 512}[int(pageRaw)%4]
		m := int(mRaw) % 6 // 0 = auto

		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		}
		p := DefaultParams()
		p.PageCap = pageCap
		p.M = m
		tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
		prog := BuildIndex(tree, p, IndexSpec{})

		// Cycle length bookkeeping.
		if prog.CycleLen() != int64(prog.Replication()*prog.NumIndexPages()+prog.NumDataPages()) {
			return false
		}
		// Every slot resolves; index pages appear M times; objects once.
		nodeCount := make(map[int]int)
		objCount := make(map[int]int)
		for s := int64(0); s < prog.CycleLen(); s++ {
			pg := prog.PageAt(s)
			if pg.Kind == IndexPage {
				nodeCount[pg.NodeID]++
			} else if pg.Seq == 0 {
				objCount[pg.ObjectID]++
			}
		}
		for id := 0; id < prog.NumIndexPages(); id++ {
			if nodeCount[id] != prog.Replication() {
				return false
			}
		}
		if len(objCount) != n {
			return false
		}
		for _, c := range objCount {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickArrivalAgreesWithScan(t *testing.T) {
	f := func(seed int64, nRaw, offRaw uint16, afterRaw uint16) bool {
		n := int(nRaw)%80 + 1
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*5000, rng.Float64()*5000)
		}
		p := DefaultParams()
		p.M = int(seed)%4 + 1
		if p.M < 1 {
			p.M = 1
		}
		tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
		prog := BuildIndex(tree, p, IndexSpec{})
		ch := NewChannel(prog, int64(offRaw))
		after := int64(afterRaw)

		nodeID := int(seed^int64(nRaw)) % prog.NumIndexPages()
		if nodeID < 0 {
			nodeID += prog.NumIndexPages()
		}
		got := ch.NextNodeArrival(nodeID, after)
		if got < after {
			return false
		}
		pg := ch.PageAt(got)
		if pg.Kind != IndexPage || pg.NodeID != nodeID {
			return false
		}
		// No earlier occurrence in [after, got).
		for s := after; s < got; s++ {
			pg := ch.PageAt(s)
			if pg.Kind == IndexPage && pg.NodeID == nodeID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
