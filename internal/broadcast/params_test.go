package broadcast

import (
	"testing"

	"tnnbcast/internal/rtree"
)

func TestParamsCapacities(t *testing.T) {
	cases := []struct {
		pageCap          int
		nodeCap, leafCap int
		pagesPerObject   int
	}{
		// entry sizes: index 18 B, leaf 10 B, object 1024 B.
		{64, 3, 6, 16},
		{128, 7, 12, 8},
		{256, 14, 25, 4},
		{512, 28, 51, 2},
	}
	for _, c := range cases {
		p := DefaultParams()
		p.PageCap = c.pageCap
		if got := p.NodeCap(); got != c.nodeCap {
			t.Errorf("PageCap=%d: NodeCap = %d, want %d", c.pageCap, got, c.nodeCap)
		}
		if got := p.LeafCap(); got != c.leafCap {
			t.Errorf("PageCap=%d: LeafCap = %d, want %d", c.pageCap, got, c.leafCap)
		}
		if got := p.PagesPerObject(); got != c.pagesPerObject {
			t.Errorf("PageCap=%d: PagesPerObject = %d, want %d", c.pageCap, got, c.pagesPerObject)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("PageCap=%d: Validate: %v", c.pageCap, err)
		}
	}
}

func TestParamsEntrySizes(t *testing.T) {
	p := DefaultParams()
	if p.IndexEntrySize() != 18 {
		t.Errorf("IndexEntrySize = %d, want 18", p.IndexEntrySize())
	}
	if p.LeafEntrySize() != 10 {
		t.Errorf("LeafEntrySize = %d, want 10", p.LeafEntrySize())
	}
}

func TestParamsValidateFor(t *testing.T) {
	p := DefaultParams() // 16 pages per object

	// M within the data-page budget is fine; so is auto selection.
	for _, m := range []int{0, 1, 16, 32} {
		p.M = m
		if err := p.ValidateFor(2); err != nil {
			t.Errorf("M=%d over 2 objects (32 data pages): unexpected error %v", m, err)
		}
	}
	// An explicit M beyond the data pages is the degenerate configuration
	// the builder used to accept silently.
	p.M = 33
	if err := p.ValidateFor(2); err == nil {
		t.Error("M=33 over 32 data pages: expected error")
	}
	p.M = 5
	if err := p.ValidateFor(0); err == nil {
		t.Error("explicit M over an empty dataset: expected error")
	}
	if err := p.ValidateFor(-1); err == nil {
		t.Error("negative object count: expected error")
	}
	// ValidateFor subsumes Validate.
	bad := Params{PageCap: 64, PtrSize: 2, CoordSize: 4, DataSize: 1024, M: -3}
	if err := bad.ValidateFor(100); err == nil {
		t.Error("ValidateFor must reject what Validate rejects")
	}
}

// TestBuildProgramClampsEmptyDatasetM is the regression test for a
// degenerate preorder program: an empty dataset with an explicit M built
// M back-to-back index copies per cycle.
func TestBuildProgramClampsEmptyDatasetM(t *testing.T) {
	p := DefaultParams()
	p.M = 7
	tree := rtree.Build(nil, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
	prog := BuildIndex(tree, p, IndexSpec{})
	if prog.Replication() != 1 {
		t.Fatalf("empty dataset: M = %d, want clamp to 1", prog.Replication())
	}
	if prog.CycleLen() != int64(prog.NumIndexPages()) {
		t.Fatalf("empty dataset cycle %d, want one index copy (%d pages)",
			prog.CycleLen(), prog.NumIndexPages())
	}
}

func TestParamsValidateErrors(t *testing.T) {
	bad := []Params{
		{PageCap: 0, PtrSize: 2, CoordSize: 4, DataSize: 1024},
		{PageCap: 64, PtrSize: -1, CoordSize: 4, DataSize: 1024},
		{PageCap: 20, PtrSize: 2, CoordSize: 4, DataSize: 1024}, // NodeCap 1
		{PageCap: 64, PtrSize: 2, CoordSize: 4, DataSize: 1024, M: -3},
		{PageCap: 64, PtrSize: 2, CoordSize: 40, DataSize: 1024}, // no leaf entries
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}
