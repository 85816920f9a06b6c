package experiments

import (
	"strings"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/dataset"
)

func smallCfg() Config {
	return Config{Queries: 25, Seed: 11}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Queries != 1000 || c.Air.Params != broadcast.DefaultParams() || c.Seed == 0 || c.Air.Faults.Seed == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
	// Explicit values are preserved.
	air := broadcast.AirSpec{Params: broadcast.Params{PageCap: 128, M: 4}, Faults: broadcast.FaultModel{Seed: 9}}
	c = Config{Queries: 7, Air: air, Seed: 3}.Defaults()
	want := broadcast.DefaultParams()
	want.PageCap, want.M = 128, 4
	if c.Queries != 7 || c.Air.Params != want || c.Seed != 3 || c.Air.Faults.Seed != 9 {
		t.Errorf("explicit values clobbered: %+v", c)
	}
}

func TestRunPairingDeterministicAndConsistent(t *testing.T) {
	p := uniformPair(5, 800, 600)
	p.Name = "test"
	cfg := smallCfg()
	cfg.Verify = true

	a := RunPairing(p, ExactAlgos(), cfg)
	b := RunPairing(p, ExactAlgos(), cfg)
	for name, sa := range a {
		sb := b[name]
		if sa != sb {
			t.Fatalf("%s: nondeterministic stats: %+v vs %+v", name, sa, sb)
		}
		if sa.MeanAccess <= 0 || sa.MeanTuneIn <= 0 {
			t.Fatalf("%s: non-positive means: %+v", name, sa)
		}
		if diff := sa.MeanEstimate + sa.MeanFilter - sa.MeanTuneIn; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: phase split inconsistent: %+v", name, sa)
		}
		if sa.Queries != cfg.Queries {
			t.Fatalf("%s: query count %d", name, sa.Queries)
		}
	}
	// The guaranteed-exact algorithms never fail.
	for _, name := range []string{AlgoWindow, AlgoDouble, AlgoHybrid} {
		if a[name].FailRate != 0 {
			t.Errorf("%s fail rate %v on uniform data", name, a[name].FailRate)
		}
	}
}

func TestHeadlineShapes(t *testing.T) {
	// Equal moderate sizes: Approximate wins access time, Double/Hybrid
	// beat Window-Based, and Approximate's tune-in is the worst.
	p := uniformPair(7, 10000, 10000)
	p.Name = "headline"
	stats := RunPairing(p, ExactAlgos(), Config{Queries: 60, Seed: 13})

	if !(stats[AlgoApproximate].MeanAccess < stats[AlgoDouble].MeanAccess) {
		t.Errorf("Approximate access %v not below Double %v",
			stats[AlgoApproximate].MeanAccess, stats[AlgoDouble].MeanAccess)
	}
	if !(stats[AlgoDouble].MeanAccess < stats[AlgoWindow].MeanAccess) {
		t.Errorf("Double access %v not below Window %v",
			stats[AlgoDouble].MeanAccess, stats[AlgoWindow].MeanAccess)
	}
	// Double and Hybrid have (essentially) the same access time.
	d, h := stats[AlgoDouble].MeanAccess, stats[AlgoHybrid].MeanAccess
	if rel := (d - h) / d; rel > 0.01 || rel < -0.01 {
		t.Errorf("Double %v vs Hybrid %v access differ by more than 1%%", d, h)
	}
	if !(stats[AlgoApproximate].MeanTuneIn > stats[AlgoWindow].MeanTuneIn) {
		t.Errorf("Approximate tune-in %v not above Window %v",
			stats[AlgoApproximate].MeanTuneIn, stats[AlgoWindow].MeanTuneIn)
	}
}

func TestRegistryCompleteness(t *testing.T) {
	if len(Order) != len(Registry) {
		t.Errorf("Order (%d) and Registry (%d) disagree", len(Order), len(Registry))
	}
	for _, id := range Order {
		if Registry[id] == nil {
			t.Errorf("experiment %q in Order but not in Registry", id)
		}
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "demo", XLabel: "x", Metric: "pages",
		Columns: []string{"A", "B"},
	}
	tab.AddRow("r1", 1, 2.5)
	tab.AddRow("r2", 100000, 0.1234)

	text := tab.Format()
	for _, want := range []string{"t — demo", "metric: pages", "A", "B", "r1", "100000", "0.1234"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format missing %q in:\n%s", want, text)
		}
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "x,A,B" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if lines[1] != "r1,1,2.5" {
		t.Errorf("CSV row = %q", lines[1])
	}
}

func TestTableAddRowPanicsOnRagged(t *testing.T) {
	tab := &Table{Columns: []string{"A", "B"}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged row")
		}
	}()
	tab.AddRow("bad", 1)
}

func TestBuildUsesPageCap(t *testing.T) {
	p := uniformPair(1, 300, 300)
	c64 := Config{}.Defaults()
	c256 := c64
	c256.Air.Params.PageCap = 256
	b64, b256 := pairAir(p, c64, false), pairAir(p, c256, false)
	if b64.Indexes[0].PagesPerObject() != 16 || b256.Indexes[0].PagesPerObject() != 4 {
		t.Errorf("pages per object: %d/%d", b64.Indexes[0].PagesPerObject(), b256.Indexes[0].PagesPerObject())
	}
	// Larger pages → shallower tree.
	if b256.Trees[0].Height >= b64.Trees[0].Height {
		t.Errorf("height with 256B pages (%d) not below 64B (%d)",
			b256.Trees[0].Height, b64.Trees[0].Height)
	}
}

func TestDensitySeriesPointsSizes(t *testing.T) {
	pts := densitySeriesPoints(Config{Seed: 1}, -5.0, dataset.DensityExponents)
	if len(pts) != 8 {
		t.Fatalf("len = %d", len(pts))
	}
	if n := len(pts[0].pair.R); n != 152 {
		t.Errorf("first R size %d, want 152", n)
	}
	if n := len(pts[7].pair.R); n != 95969 {
		t.Errorf("last R size %d, want 95969", n)
	}
	for _, pt := range pts {
		if len(pt.pair.S) != 15210 {
			t.Errorf("S size %d, want 15210", len(pt.pair.S))
		}
	}
}

func TestAblationRunnersShape(t *testing.T) {
	cfg := Config{Queries: 5, Seed: 3}
	packing := AblationPacking(cfg)
	if len(packing.Rows) != 3 || len(packing.Columns) != 4 {
		t.Errorf("packing table %dx%d", len(packing.Rows), len(packing.Columns))
	}
	inter := AblationInterleave(cfg)
	if len(inter.Rows) != 8 { // 7 explicit m values + auto
		t.Errorf("interleave rows = %d", len(inter.Rows))
	}
	pages := AblationPageSize(cfg)
	if len(pages.Rows) != 4 || len(pages.Columns) != 4 {
		t.Errorf("pagesize table %dx%d", len(pages.Rows), len(pages.Columns))
	}
}

func TestSingleVsMultiChannelShape(t *testing.T) {
	tab := SingleVsMultiChannel(Config{Queries: 15, Seed: 3})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Single-channel access must exceed multi-channel access for every
	// algorithm (the combined cycle is longer and nothing overlaps).
	multi, single := tab.Rows[0], tab.Rows[1]
	for i := range multi.Values {
		if single.Values[i] <= multi.Values[i] {
			t.Errorf("col %d: single access %v not above multi %v",
				i, single.Values[i], multi.Values[i])
		}
	}
	// Tune-in is (near) identical: the same pages get downloaded.
	mt, st := tab.Rows[2], tab.Rows[3]
	for i := range mt.Values {
		rel := (st.Values[i] - mt.Values[i]) / mt.Values[i]
		if rel > 0.05 || rel < -0.05 {
			t.Errorf("col %d: tune-in differs by %.1f%%", i, rel*100)
		}
	}
	// The access ratio row is > 1 everywhere.
	for i, v := range tab.Rows[4].Values {
		if v <= 1 {
			t.Errorf("col %d: access ratio %v not above 1", i, v)
		}
	}
}
