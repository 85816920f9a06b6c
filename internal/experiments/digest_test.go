package experiments

import (
	"math"
	"slices"
	"testing"
)

// figureDigest pins every Registry entry: one FNV word per experiment,
// folded from its table's shape and the float64 bits of every cell, on a
// reduced workload with Verify on. Any change to the air, the algorithms
// or the harness that moves a single reported figure changes a word.
var figureDigest = map[string]uint64{
	"fig9a":               0xd4b05efac44d6fc8,
	"fig9b":               0x8fdfe8f84d0ca0b7,
	"fig9c":               0x75abb3cd5131c6b4,
	"fig9d":               0xa242e087465fdd47,
	"fig11a":              0x1dc4da6b5abd9793,
	"fig11b":              0x5b4fec297ede5a45,
	"fig11c":              0x2eb6089f6e1b0db8,
	"fig11d":              0x72810fb840ee52c3,
	"fig12a":              0xf0b54d641e1f462e,
	"fig12b":              0x8a8c32fc919eccff,
	"fig12c":              0x13dc0c85cef7c41e,
	"fig12d":              0x60c3a1b393525001,
	"fig13a":              0x7fea0428c85c494d,
	"fig13b":              0x113e1a61925374b4,
	"tab3":                0xb725b7500b030b9f,
	"grid":                0x3c410e3d3a4f3100,
	"clients":             0xf98605a737d53aec,
	"ablation-packing":    0x523267df6d69f773,
	"ablation-interleave": 0x934f9a2fb0acb34e,
	"ablation-pagesize":   0x2a569574f5a9920e,
	"ablation-index":      0x6512ccc8fcc4651a,
	"ablation-cut":        0xc039b8d70726b12b,
	"ablation-sched":      0xd9e1824404d9b27c,
	"ablation-loss":       0xa01ce2a5257a7763,
	"ext-singlechannel":   0xbae03bd3c3ea5e18,
}

// wallClockColumns are the clients table's simulator-speed columns: they
// measure this process's wall clock, so they stay out of the digest.
var wallClockColumns = []string{"Seq-q/s", "Batch-q/s", "Wall-x", "Steps/s", "Peak-B/client"}

// figureShapes are the row and column counts of the paper's figures; every
// cell of these tables is a positive page count.
var figureShapes = map[string]struct{ rows, cols int }{
	"fig9a":  {15, 4},
	"fig9c":  {8, 4},
	"fig11a": {8, 3},
	"fig11d": {8, 4},
	"fig12a": {8, 4},
	"fig12b": {5, 4},
	"fig12c": {5, 4},
	"fig13a": {8, 3},
}

// tableWord folds a table's shape and cells into one FNV word, skipping
// the wall-clock columns.
func tableWord(tab *Table) uint64 {
	h := FoldWords(FNVOffset, []uint64{uint64(len(tab.Rows)), uint64(len(tab.Columns))})
	for _, r := range tab.Rows {
		for j, v := range r.Values {
			if !slices.Contains(wallClockColumns, tab.Columns[j]) {
				h = FoldWords(h, []uint64{math.Float64bits(v)})
			}
		}
	}
	return h
}

// TestFigureDigest runs every experiment at one and four workers and
// requires each run to reproduce its committed word. -short skips the
// two slowest entries (tab3 and grid).
func TestFigureDigest(t *testing.T) {
	if len(figureDigest) != len(Registry) {
		t.Errorf("%d digest words for %d experiments", len(figureDigest), len(Registry))
	}
	for _, id := range Order {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && (id == "tab3" || id == "grid") {
				t.Skip("slow figure; runs without -short")
			}
			for _, workers := range []int{1, 4} {
				cfg := Config{Queries: 5, Seed: 3, Verify: true, Clients: []int{50, 200}, Workers: workers}
				tab := Registry[id](cfg)
				if tab.ID != id {
					t.Errorf("workers=%d: table ID %q", workers, tab.ID)
				}
				if shape, ok := figureShapes[id]; ok {
					checkFigureShape(t, tab, shape.rows, shape.cols)
				}
				if got, want := tableWord(tab), figureDigest[id]; got != want {
					t.Errorf("workers=%d: digest %#x, want %#x", workers, got, want)
				}
			}
		})
	}
}

// checkFigureShape requires rows × cols cells, all positive.
func checkFigureShape(t *testing.T, tab *Table, rows, cols int) {
	t.Helper()
	if len(tab.Rows) != rows {
		t.Errorf("%d rows, want %d", len(tab.Rows), rows)
	}
	if len(tab.Columns) != cols {
		t.Errorf("%d columns, want %d", len(tab.Columns), cols)
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Fatalf("ragged row %q", r.X)
		}
		for _, v := range r.Values {
			if v <= 0 {
				t.Fatalf("non-positive cell in row %q", r.X)
			}
		}
	}
}
