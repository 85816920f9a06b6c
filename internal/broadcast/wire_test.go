package broadcast

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// wireEntry is one decoded index-page entry.
type wireEntry struct {
	// MBR is the child bounding box (internal pages); for leaf pages Lo
	// holds the point and Hi is unused.
	MBR geom.Rect
	// DelayLo and DelayHi bound the slots (relative to the carrying page)
	// at which the referenced page is on air: the coarse 2-byte pointer
	// quantizes the exact delay into a window.
	DelayLo, DelayHi int64
}

// wirePage is a decoded index page.
type wirePage struct {
	Leaf    bool
	Entries []wireEntry
}

// decodeNode is the reference decoder of the page layout in wire.go.
// cycleLen must be the carrying physical channel's cycle length (it
// determines the pointer unit). Integrity is the frame's job, so the
// decoder checks only the layout: the image size, the kind byte and the
// entry count.
func decodeNode(img []byte, params Params, cycleLen int64) (wirePage, error) {
	if len(img) != PageImageSize(params) {
		return wirePage{}, fmt.Errorf("broadcast: page image %dB, want %dB", len(img), PageImageSize(params))
	}
	if img[0] > 1 {
		return wirePage{}, fmt.Errorf("broadcast: page kind %d", img[0])
	}
	unit := pointerUnit(cycleLen)
	leaf := img[0] == 1
	count := int(img[1])
	out := wirePage{Leaf: leaf}
	off := pageHeaderSize
	entry := params.IndexEntrySize()
	if leaf {
		entry = params.LeafEntrySize()
	}
	if off+count*entry > len(img) {
		return wirePage{}, fmt.Errorf("broadcast: %d entries overflow %dB image", count, len(img))
	}
	for i := 0; i < count; i++ {
		var e wireEntry
		if leaf {
			x := rf32(img[off:])
			y := rf32(img[off+4:])
			e.MBR = geom.Rect{Lo: geom.Pt(x, y), Hi: geom.Pt(x, y)}
			off += 8
		} else {
			lox := rf32(img[off:])
			loy := rf32(img[off+4:])
			hix := rf32(img[off+8:])
			hiy := rf32(img[off+12:])
			e.MBR = geom.Rect{Lo: geom.Pt(lox, loy), Hi: geom.Pt(hix, hiy)}
			off += 16
		}
		ticks := int64(binary.BigEndian.Uint16(img[off:]))
		off += 2
		e.DelayLo = ticks * unit
		e.DelayHi = (ticks+1)*unit - 1
		out.Entries = append(out.Entries, e)
	}
	return out, nil
}

func rf32(b []byte) float64 {
	return float64(math.Float32frombits(binary.BigEndian.Uint32(b)))
}

// checkPage decodes img, the page of node n carried at slot carry on feed
// f over a physical cycle of cycleLen slots, and checks the whole wire
// contract: fixed image size, exact header fields, float32-rounded
// geometry, zero padding, and — the part the whole air index stands on —
// every decoded relative-pointer window, exactly one pointer unit wide,
// containing the true next arrival of its target page.
func checkPage(t *testing.T, f Feed, n *rtree.Node, carry int64, img []byte, p Params, cycleLen int64) {
	t.Helper()
	dec, err := decodeNode(img, p, cycleLen)
	if err != nil {
		t.Fatalf("slot %d: decode: %v", carry, err)
	}
	if dec.Leaf != n.Leaf() {
		t.Fatalf("slot %d: leaf flag %v, node leaf %v", carry, dec.Leaf, n.Leaf())
	}
	if want := len(n.Children) + len(n.Entries); len(dec.Entries) != want {
		t.Fatalf("slot %d: entry count %d, want %d", carry, len(dec.Entries), want)
	}
	unit := pointerUnit(cycleLen)
	window := func(i int, w wireEntry, target int64) {
		t.Helper()
		if w.DelayHi-w.DelayLo != unit-1 {
			t.Fatalf("slot %d entry %d: window width %d, unit %d", carry, i, w.DelayHi-w.DelayLo+1, unit)
		}
		if want := target - carry; want < w.DelayLo || want > w.DelayHi {
			t.Fatalf("slot %d entry %d: true delay %d outside [%d,%d]", carry, i, want, w.DelayLo, w.DelayHi)
		}
	}
	used := pageHeaderSize
	if n.Leaf() {
		for i, e := range n.Entries {
			w := dec.Entries[i]
			if float64(float32(e.Point.X)) != w.MBR.Lo.X || float64(float32(e.Point.Y)) != w.MBR.Lo.Y {
				t.Fatalf("slot %d entry %d: point not float32-exact", carry, i)
			}
			window(i, w, f.NextObjectArrival(e.ID, carry))
		}
		used += len(n.Entries) * p.LeafEntrySize()
	} else {
		for i, c := range n.Children {
			w := dec.Entries[i]
			for _, pair := range [][2]float64{
				{c.MBR.Lo.X, w.MBR.Lo.X}, {c.MBR.Lo.Y, w.MBR.Lo.Y},
				{c.MBR.Hi.X, w.MBR.Hi.X}, {c.MBR.Hi.Y, w.MBR.Hi.Y},
			} {
				if float64(float32(pair[0])) != pair[1] {
					t.Fatalf("slot %d child %d: MBR not float32-exact", carry, i)
				}
			}
			window(i, w, f.NextNodeArrival(c.ID, carry+1))
		}
		used += len(n.Children) * p.IndexEntrySize()
	}
	// Padding must be all zeros: decoders rely on the count byte, but
	// fixed-size pages must not leak stale bytes.
	for i := used; i < len(img); i++ {
		if img[i] != 0 {
			t.Fatalf("slot %d: padding byte %d = %#x", carry, i, img[i])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := DefaultParams()
	p.M = 2
	prog := buildTestProgram(t, 80, p)
	ch := NewChannel(prog, 13)

	slot := ch.NextRootArrival(0)
	root, _ := ch.ReadNode(slot)
	img, err := encodeNode(ch, prog.Tree().Flat(), int32(root.ID), slot, p, prog.CycleLen())
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != PageImageSize(p) {
		t.Fatalf("image size %d, want %d", len(img), PageImageSize(p))
	}
	checkPage(t, ch, root, slot, img, p, prog.CycleLen())
}

func TestEncodeLeafPointers(t *testing.T) {
	p := DefaultParams()
	prog := buildTestProgram(t, 40, p)
	ch := NewChannel(prog, 7)

	// Find a leaf on air and verify its object pointers.
	var leafSlot int64 = -1
	for s := int64(0); s < prog.CycleLen(); s++ {
		pg := ch.PageAt(s)
		if pg.Kind == IndexPage && prog.Tree().Flat().Leaf(int32(pg.NodeID)) {
			leafSlot = s
			break
		}
	}
	if leafSlot < 0 {
		t.Fatal("no leaf page found")
	}
	leaf, _ := ch.ReadNode(leafSlot)
	img, err := encodeNode(ch, prog.Tree().Flat(), int32(leaf.ID), leafSlot, p, prog.CycleLen())
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, ch, leaf, leafSlot, img, p, prog.CycleLen())
}

func TestEncodeCycleIndexAllFit(t *testing.T) {
	// Every node of a full tree must fit its page at every capacity — this
	// is the byte-level proof of the capacity arithmetic.
	pts := dataset.Uniform(120, 120, dataset.PaperRegion)
	for _, pageCap := range []int{64, 128, 256, 512} {
		p := DefaultParams()
		p.PageCap = pageCap
		air := mustAir(t, [][]geom.Point{pts}, AirSpec{Params: p, Phases: [2]int64{3}})
		imgs, err := air.EncodeCycle(0)
		if err != nil {
			t.Fatalf("pageCap %d: %v", pageCap, err)
		}
		idx := air.Indexes[0]
		n := 0
		for rel, img := range imgs {
			if img == nil {
				continue
			}
			n++
			if len(img) != pageCap+pageHeaderSize {
				t.Fatalf("pageCap %d slot %d: image %dB", pageCap, rel, len(img))
			}
			if _, err := decodeNode(img, p, idx.CycleLen()); err != nil {
				t.Fatalf("pageCap %d slot %d: decode: %v", pageCap, rel, err)
			}
		}
		if want := idx.Replication() * idx.NumIndexPages(); n != want {
			t.Fatalf("pageCap %d: %d images, want %d", pageCap, n, want)
		}
	}
}

// TestEncodeCycleMatchesDecoder checks every image EncodeCycle builds
// against the reference decoder and the air's own schedule, on dedicated
// and multiplexed channels of both index families: an index slot carries
// its node's page with pointers in the physical cycle's units, and a data
// slot carries no image.
func TestEncodeCycleMatchesDecoder(t *testing.T) {
	sets := [][]geom.Point{
		dataset.Uniform(1, 90, dataset.PaperRegion),
		dataset.Uniform(2, 35, dataset.PaperRegion),
	}
	for _, scheme := range []SchemeID{SchemePreorder, SchemeDistributed} {
		for _, single := range []bool{false, true} {
			p := DefaultParams()
			air := mustAir(t, sets, AirSpec{
				Params: p, Scheme: scheme, Single: single,
				Phases: [2]int64{-5, 1 << 33},
			})
			for c := range air.Channels() {
				imgs, err := air.EncodeCycle(c)
				if err != nil {
					t.Fatalf("scheme %d single=%v channel %d: %v", scheme, single, c, err)
				}
				cycle := air.CycleLen(c)
				if int64(len(imgs)) != cycle {
					t.Fatalf("scheme %d single=%v channel %d: %d images for %d slots",
						scheme, single, c, len(imgs), cycle)
				}
				for rel, img := range imgs {
					abs := air.Phase(c) + int64(rel)
					pg, d := air.PageOn(c, abs)
					if (pg.Kind == IndexPage) != (img != nil) {
						t.Fatalf("scheme %d single=%v slot %d: %v page with image %v",
							scheme, single, abs, pg.Kind, img != nil)
					}
					if img != nil {
						checkPage(t, air.Feeds[d], air.Trees[d].Nodes()[pg.NodeID], abs, img, p, cycle)
					}
				}
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := decodeNode([]byte{1}, p, 100); err == nil {
		t.Error("short image should error")
	}
	// Claimed count overflowing the image.
	img := make([]byte, PageImageSize(p))
	img[1] = 200
	if _, err := decodeNode(img, p, 100); err == nil {
		t.Error("overflowing count should error")
	}
}

func TestPointerUnit(t *testing.T) {
	if pointerUnit(100) != 1 {
		t.Error("small cycles use unit 1")
	}
	if pointerUnit(65536) != 1 {
		t.Error("exactly 2^16 slots still unit 1")
	}
	if u := pointerUnit(65537); u != 2 {
		t.Errorf("unit = %d, want 2", u)
	}
	if u := pointerUnit(1_500_000); u != 23 {
		t.Errorf("unit = %d, want 23", u)
	}
}
