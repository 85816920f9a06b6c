// Package broadcast models the wireless data broadcast environment of the
// paper: a server serializes a packed R-tree and its data objects into
// fixed-size pages, interleaves index and data with the (1, m) scheme of
// Imielinski et al., and cyclically transmits the resulting program on a
// channel. Mobile clients experience the channel as a purely linear
// medium — a page is only available in the slot it is on air, and a missed
// page costs waiting for its next scheduled appearance.
//
// Time is discrete: one slot broadcasts exactly one page on each channel.
// Both metrics of the paper (access time and tune-in time) are counted in
// pages, i.e. in slots.
//
// Everything on the air is a pure function of the dataset and the
// parameters — fault patterns included, which are pure in (seed, slot).
// tnnlint enforces this at compile time (see internal/analysis).
//
//tnn:deterministic
package broadcast

import "fmt"

// Params are the physical parameters of Table 2 in the paper.
type Params struct {
	// PageCap is the page capacity in bytes (64–512 in the paper).
	PageCap int
	// PtrSize is the size of an index pointer in bytes (2).
	PtrSize int
	// CoordSize is the size of one coordinate in bytes (4); a 2-D point
	// occupies 2*CoordSize.
	CoordSize int
	// DataSize is the size of one data object's content in bytes (1024).
	DataSize int
	// M is the (1, m) interleaving factor: the full index is broadcast
	// before each of the M equal data fractions. M = 0 selects the
	// Imielinski-optimal value round(sqrt(dataPages/indexPages)).
	M int
}

// DefaultParams returns Table 2's setting with the 64-byte page capacity
// used by most experiments and automatic (1, m) selection.
func DefaultParams() Params {
	return Params{PageCap: 64, PtrSize: 2, CoordSize: 4, DataSize: 1024}
}

// Validate reports a configuration error, or nil.
func (p Params) Validate() error {
	if p.PageCap <= 0 || p.PtrSize <= 0 || p.CoordSize <= 0 || p.DataSize <= 0 {
		return fmt.Errorf("broadcast: all sizes must be positive: %+v", p)
	}
	if p.NodeCap() < 2 {
		return fmt.Errorf("broadcast: page capacity %dB holds %d index entries; need >= 2",
			p.PageCap, p.NodeCap())
	}
	if p.LeafCap() < 1 {
		return fmt.Errorf("broadcast: page capacity %dB holds no leaf entries", p.PageCap)
	}
	if p.M < 0 {
		return fmt.Errorf("broadcast: M must be >= 0, got %d", p.M)
	}
	return nil
}

// ValidateFor reports a configuration error for a broadcast over numObjects
// data objects, or nil. Beyond Validate, it rejects an explicit (1, m)
// factor larger than the number of data pages: such a program cannot give
// every fraction a data page, so the "interleaving" would degenerate into
// back-to-back index copies. (BuildIndex additionally clamps M to the
// object count, which is the stricter bound whenever objects span several
// pages.)
func (p Params) ValidateFor(numObjects int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if numObjects < 0 {
		return fmt.Errorf("broadcast: negative object count %d", numObjects)
	}
	if dataPages := numObjects * p.PagesPerObject(); p.M > dataPages && p.M > 1 {
		return fmt.Errorf("broadcast: explicit M = %d exceeds the %d data pages of %d objects",
			p.M, dataPages, numObjects)
	}
	return nil
}

// IndexEntrySize returns the bytes one internal-node entry occupies: an MBR
// (4 coordinates) plus a child pointer.
func (p Params) IndexEntrySize() int { return 4*p.CoordSize + p.PtrSize }

// LeafEntrySize returns the bytes one leaf entry occupies: a point
// (2 coordinates) plus a data pointer.
func (p Params) LeafEntrySize() int { return 2*p.CoordSize + p.PtrSize }

// NodeCap returns the R-tree fanout implied by the page capacity: each
// index node occupies exactly one page. With the paper's 64-byte pages this
// is 3, matching the reported M = 3.
func (p Params) NodeCap() int { return p.PageCap / p.IndexEntrySize() }

// LeafCap returns the number of point entries a leaf page holds.
func (p Params) LeafCap() int { return p.PageCap / p.LeafEntrySize() }

// PagesPerObject returns how many consecutive data pages one object's
// 1-KiB content occupies: ⌈DataSize/PageCap⌉.
func (p Params) PagesPerObject() int {
	return (p.DataSize + p.PageCap - 1) / p.PageCap
}
