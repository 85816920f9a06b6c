package broadcast

import (
	"math/rand"
	"testing"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// FuzzWireRoundTrip drives the page encoder and the reference decoder over
// fuzz-chosen dataset sizes, page capacities, phase offsets, and carrier
// slots (on both index families) and checks the full wire contract
// (checkPage). Single-bit flips are the frame's to reject: netfeed's
// TestFrameRejectsEveryBitFlip.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint16(80), uint8(0), int64(13), uint16(5), false)
	f.Add(uint16(1), uint8(1), int64(0), uint16(0), false)
	f.Add(uint16(250), uint8(3), int64(-9), uint16(999), true)
	f.Add(uint16(40), uint8(2), int64(1<<40), uint16(77), true)

	f.Fuzz(func(t *testing.T, nRaw uint16, capSel uint8, offset int64, slotSel uint16, distributed bool) {
		n := int(nRaw)%400 + 1
		caps := []int{64, 128, 256, 512}
		p := DefaultParams()
		p.PageCap = caps[int(capSel)%len(caps)]

		rng := rand.New(rand.NewSource(int64(n)*31 + int64(capSel)))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
		var idx AirIndex
		if distributed {
			idx = BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed})
		} else {
			idx = BuildIndex(tree, p, IndexSpec{})
		}
		ch := NewChannel(idx, offset)

		// Pick an index page: the slotSel-th one of the cycle, wrapped.
		var indexSlots []int64
		for s := int64(0); s < idx.CycleLen(); s++ {
			if idx.PageAt(s).Kind == IndexPage {
				indexSlots = append(indexSlots, s)
			}
		}
		rel := indexSlots[int(slotSel)%len(indexSlots)]
		// Carrier slot on the channel clock (first occurrence at/after 0).
		slot := ch.NextNodeArrival(idx.PageAt(rel).NodeID, 0)
		node, _ := ch.ReadNode(slot)

		img, err := encodeNode(ch, tree.Flat(), int32(node.ID), slot, p, idx.CycleLen())
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		checkPage(t, ch, node, slot, img, p, idx.CycleLen())
	})
}
