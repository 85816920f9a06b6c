package broadcast

import (
	"encoding/binary"
	"fmt"
	"math"

	"tnnbcast/internal/rtree"
)

// Wire format for broadcast pages, honoring Table 2's sizes: coordinates
// are 4 bytes (float32), pointers are 2 bytes. The simulation itself works
// on logical pages; this encoder exists to validate that the capacity
// arithmetic the whole model rests on (NodeCap/LeafCap/PagesPerObject) is
// achievable byte-for-byte, and to give downstream users a concrete page
// layout.
//
// Index page layout (one R-tree node per page):
//
//	[1B kind/leaf flag][1B entry count] then per entry:
//	  internal: [4×float32 MBR][uint16 pointer]              (18 B)
//	  leaf:     [2×float32 point][uint16 pointer]            (10 B)
//	then zero padding to PageCap + 2 (PageImageSize).
//
// The 2-byte header sits outside PageCap: the entries alone must fit the
// capacity, which is exactly the paper's Table 2 arithmetic, and the
// encoder rejects nodes that overflow it. A page image carries no version
// and no checksum of its own: it travels only inside a netfeed frame, and
// the frame's version byte and CRC32-C trailer cover the image too.
//
// Pointer encoding: a 2-byte pointer cannot hold an absolute slot of a
// multi-million-slot cycle, so — as real air indexes do — pointers are
// *relative* delays in coarse units: the number of whole pointerUnit-slot
// ticks from the start of the carrying page's slot until the target page
// is on air, where pointerUnit = ⌈cycle/65536⌉ over the physical channel's
// cycle. Decoders recover a slot window of width pointerUnit containing
// the target; the simulation's arrival queries are the exact counterpart.

// pageHeaderSize is the per-page header: kind/flags byte + entry count.
const pageHeaderSize = 2

// PageImageSize returns the size in bytes of one encoded page image:
// the header plus the page capacity. Every slot of a service carries a
// payload of this size, index and data alike.
func PageImageSize(p Params) int {
	return p.PageCap + pageHeaderSize
}

// pointerUnit returns the coarse tick size used by 2-byte relative
// pointers for a cycle of the given length.
func pointerUnit(cycleLen int64) int64 {
	u := (cycleLen + 65535) / 65536
	if u < 1 {
		u = 1
	}
	return u
}

// EncodeCycle serializes every index page of one cycle of physical
// channel c, all replications included. It returns one image per
// cycle-relative slot — the slot Phase(c)+i for image i — and nil at data
// slots. Relative pointer delays do not depend on which repetition of the
// cycle carries a page, so the images serve every cycle. It fails if a
// node of the tree does not fit its page.
func (a *Air) EncodeCycle(c int) ([][]byte, error) {
	cycle, phase := a.CycleLen(c), a.Phase(c)
	out := make([][]byte, cycle)
	for rel := range out {
		abs := phase + int64(rel)
		pg, d := a.PageOn(c, abs)
		if pg.Kind != IndexPage {
			continue
		}
		img, err := encodeNode(a.Feeds[d], a.Trees[d].Flat(), int32(pg.NodeID), abs, a.Indexes[d].Params(), cycle)
		if err != nil {
			return nil, fmt.Errorf("slot %d (node %d): %w", rel, pg.NodeID, err)
		}
		out[rel] = img
	}
	return out, nil
}

// encodeNode serializes node id of the tree image f, broadcast at slot
// carrySlot on feed f, into a page image of PageImageSize(params) bytes.
// Child and data pointers are relative to carrySlot, in units fixed by
// the physical channel's cycle length cycleLen: a multiplexed share's
// arrival delays can span its channel's whole period.
func encodeNode(feed Feed, f *rtree.Flat, id int32, carrySlot int64, params Params, cycleLen int64) ([]byte, error) {
	buf := make([]byte, 0, PageImageSize(params))
	unit := pointerUnit(cycleLen)

	relPtr := func(target int64) (uint16, error) {
		d := target - carrySlot
		if d < 0 {
			return 0, fmt.Errorf("broadcast: pointer target %d before carrier %d", target, carrySlot)
		}
		ticks := d / unit
		if ticks > 65535 {
			return 0, fmt.Errorf("broadcast: pointer delay %d exceeds 2-byte range", d)
		}
		return uint16(ticks), nil
	}

	if f.Leaf(id) {
		first, end := f.LeafRange(id)
		if int(end-first) > params.LeafCap() {
			return nil, fmt.Errorf("broadcast: leaf with %d entries exceeds capacity %d",
				end-first, params.LeafCap())
		}
		buf = append(buf, 1, byte(end-first))
		for i := first; i < end; i++ {
			buf = f32(buf, f.X[i])
			buf = f32(buf, f.Y[i])
			p, err := relPtr(feed.NextObjectArrival(int(f.ID[i]), carrySlot))
			if err != nil {
				return nil, err
			}
			buf = binary.BigEndian.AppendUint16(buf, p)
		}
	} else {
		first, end := f.EntRange(id)
		if int(end-first) > params.NodeCap() {
			return nil, fmt.Errorf("broadcast: node with %d children exceeds capacity %d",
				end-first, params.NodeCap())
		}
		buf = append(buf, 0, byte(end-first))
		for e := first; e < end; e++ {
			buf = f32(buf, f.MinX[e])
			buf = f32(buf, f.MinY[e])
			buf = f32(buf, f.MaxX[e])
			buf = f32(buf, f.MaxY[e])
			p, err := relPtr(feed.NextNodeArrival(int(f.Key[e]), carrySlot+1))
			if err != nil {
				return nil, err
			}
			buf = binary.BigEndian.AppendUint16(buf, p)
		}
	}
	if len(buf) > PageImageSize(params) {
		return nil, fmt.Errorf("broadcast: page image %dB exceeds capacity %dB (+%dB header)",
			len(buf), params.PageCap, pageHeaderSize)
	}
	// Pad to the fixed page size so the air is slot-uniform: the buffer's
	// spare capacity is still zero.
	return buf[:PageImageSize(params)], nil
}

func f32(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint32(b, math.Float32bits(float32(v)))
}
