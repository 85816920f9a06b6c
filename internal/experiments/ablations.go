package experiments

import (
	"fmt"

	"tnnbcast/internal/core"
	"tnnbcast/internal/rtree"
)

// This file adds ablation experiments beyond the paper's figures. They
// probe design choices the paper fixes without measuring:
//
//   - ablation-packing: the paper uses STR packing "to achieve the best
//     performance" [12]; this ablation quantifies what Hilbert-sort or
//     Nearest-X packing would cost the TNN workload.
//   - ablation-interleave: the paper adopts the (1, m) scheme; this
//     ablation sweeps m and shows the access-time/tune-in trade-off that
//     makes the Imielinski-optimal m ≈ sqrt(data/index) the right default.
//   - ablation-pagesize: the paper reports 64–512 B page capacities for
//     selected experiments; this sweeps them on one configuration for all
//     four algorithms.

func init() {
	Registry["ablation-packing"] = AblationPacking
	Registry["ablation-interleave"] = AblationInterleave
	Registry["ablation-pagesize"] = AblationPageSize
	Order = append(Order, "ablation-packing", "ablation-interleave", "ablation-pagesize")
}

// AblationPacking compares the three bulk-loading algorithms on the
// Double-NN workload (UNIF(-5.0) × UNIF(-5.0)).
func AblationPacking(cfg Config) *Table {
	cfg = cfg.Defaults()
	t := &Table{
		ID:      "ablation-packing",
		Title:   "R-tree packing algorithm vs Double-NN cost, S = R = UNIF(-5.0)",
		XLabel:  "packing",
		Metric:  "pages",
		Columns: []string{"access time", "tune-in time", "estimate", "filter"},
	}
	pair := uniformPair(cfg.Seed, 15210, 15210)
	pair.Name = "packing"
	algos := []AlgoSpec{{Name: AlgoDouble, Algo: core.AlgoDouble}}
	for _, pk := range []rtree.Packing{rtree.STR, rtree.HilbertSort, rtree.NearestX} {
		c := cfg
		c.Air.Packing = pk
		st := RunPairing(pair, algos, c)[AlgoDouble]
		t.AddRow(pk.String(), st.MeanAccess, st.MeanTuneIn, st.MeanEstimate, st.MeanFilter)
	}
	return t
}

// AblationInterleave sweeps the (1, m) factor on the Double-NN workload.
// Small m makes clients wait long for the next index root (large access
// time); large m stretches the cycle with index copies so data pages —
// including the final answer attributes — arrive later.
func AblationInterleave(cfg Config) *Table {
	cfg = cfg.Defaults()
	t := &Table{
		ID:      "ablation-interleave",
		Title:   "(1, m) interleaving factor vs Double-NN cost, S = R = UNIF(-5.0)",
		XLabel:  "m",
		Metric:  "pages",
		Columns: []string{"access time", "tune-in time"},
	}
	pair := uniformPair(cfg.Seed, 15210, 15210)
	pair.Name = "interleave"
	algos := []AlgoSpec{{Name: AlgoDouble, Algo: core.AlgoDouble}}
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64} {
		c := cfg
		c.Air.Params.M = m
		st := RunPairing(pair, algos, c)[AlgoDouble]
		t.AddRow(fmt.Sprintf("%d", m), st.MeanAccess, st.MeanTuneIn)
	}
	// The auto-selected optimum, for reference.
	st := RunPairing(pair, algos, cfg)[AlgoDouble]
	t.AddRow("auto", st.MeanAccess, st.MeanTuneIn)
	return t
}

// AblationPageSize sweeps the page capacity for all four algorithms on the
// equal-size workload (tune-in time; larger pages carry more entries but
// count the same toward both metrics).
func AblationPageSize(cfg Config) *Table {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "ablation-pagesize",
		Title:  "Page capacity vs tune-in time, S = R = UNIF(-5.0)",
		XLabel: "page capacity (bytes)",
		Metric: "tune-in time (pages)",
	}
	algos := cfg.resolveAlgos(ExactAlgos())
	for _, a := range algos {
		t.Columns = append(t.Columns, a.Name)
	}
	pair := uniformPair(cfg.Seed, 15210, 15210)
	pair.Name = "pagesize"
	for _, pageCap := range []int{64, 128, 256, 512} {
		c := cfg
		c.Air.Params.PageCap = pageCap
		st := RunPairing(pair, algos, c)
		vals := make([]float64, len(algos))
		for i, a := range algos {
			vals[i] = st[a.Name].MeanTuneIn
		}
		t.AddRow(fmt.Sprintf("%d", pageCap), vals...)
	}
	return t
}
