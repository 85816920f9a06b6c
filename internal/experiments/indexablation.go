package experiments

import (
	"fmt"
	"math"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
)

// This file adds the air-index ablations enabled by the pluggable
// AirIndex architecture:
//
//   - ablation-index: preorder-(1,m) vs the distributed index (replicated
//     upper levels before each branch segment) on the default workload,
//     for all four algorithms. The distributed index airs far fewer
//     repeated index pages per cycle, so cycles are much shorter and both
//     waiting (access time) and the searches' working sets shrink.
//   - ablation-cut: sweep of the distributed index's cut level (how many
//     upper levels are replicated): deeper cuts give more frequent entry
//     points but replicate longer paths.
//   - ablation-sched: flat vs skewed broadcast-disks data scheduling under
//     a hot-spot query workload, with object weights matching the query
//     density.

func init() {
	Registry["ablation-index"] = AblationIndex
	Registry["ablation-cut"] = AblationCut
	Registry["ablation-sched"] = AblationSched
	Order = append(Order, "ablation-index", "ablation-cut", "ablation-sched")
}

// indexWorkloadPair is the default index-ablation workload:
// UNIF(-5.0) × UNIF(-5.0), the configuration most figures use.
func indexWorkloadPair(seed int64) Pairing {
	pair := uniformPair(seed, 15210, 15210)
	pair.Name = "index"
	return pair
}

// AblationIndex compares the index families on the default workload: all
// four algorithms, access and tune-in per scheme.
func AblationIndex(cfg Config) *Table {
	cfg = cfg.Defaults()
	algos := cfg.resolveAlgos(ExactAlgos())
	t := &Table{
		ID:     "ablation-index",
		Title:  "Air-index family vs TNN cost, S = R = UNIF(-5.0)",
		XLabel: "index",
		Metric: "pages",
	}
	for _, a := range algos {
		t.Columns = append(t.Columns, a.Name+" access", a.Name+" tune-in")
	}
	pair := indexWorkloadPair(cfg.Seed)
	for _, scheme := range []broadcast.SchemeID{broadcast.SchemePreorder, broadcast.SchemeDistributed} {
		c := cfg
		c.Air.Scheme = scheme
		st := RunPairing(pair, algos, c)
		vals := make([]float64, 0, 2*len(algos))
		for _, a := range algos {
			vals = append(vals, st[a.Name].MeanAccess, st[a.Name].MeanTuneIn)
		}
		t.AddRow(scheme.String(), vals...)
	}
	return t
}

// AblationCut sweeps the distributed index's replicated depth on the
// Double-NN workload.
func AblationCut(cfg Config) *Table {
	cfg = cfg.Defaults()
	t := &Table{
		ID:      "ablation-cut",
		Title:   "Distributed-index cut level vs Double-NN cost, S = R = UNIF(-5.0)",
		XLabel:  "cut",
		Metric:  "pages",
		Columns: []string{"access time", "tune-in time", "estimate", "filter"},
	}
	pair := indexWorkloadPair(cfg.Seed)
	algos := []AlgoSpec{{Name: AlgoDouble, Algo: core.AlgoDouble}}
	for _, cut := range []int{1, 2, 3, 4, 5} {
		c := cfg
		c.Air.Scheme = broadcast.SchemeDistributed
		c.Air.Cut = cut
		st := RunPairing(pair, algos, c)[AlgoDouble]
		t.AddRow(fmt.Sprintf("%d", cut), st.MeanAccess, st.MeanTuneIn, st.MeanEstimate, st.MeanFilter)
	}
	// The auto cut (half the tree height), for reference.
	c := cfg
	c.Air.Scheme = broadcast.SchemeDistributed
	st := RunPairing(pair, algos, c)[AlgoDouble]
	t.AddRow("auto", st.MeanAccess, st.MeanTuneIn, st.MeanEstimate, st.MeanFilter)
	return t
}

// AblationSched compares flat vs skewed broadcast-disks data scheduling
// under a hot-spot query workload (queries Gaussian around the region
// center, σ = 5% of the region width), with object access weights set to
// the query density at each object — the information a server would learn
// from its access statistics.
func AblationSched(cfg Config) *Table {
	cfg = cfg.Defaults()
	cfg.HotSpotSigma = 0.05
	t := &Table{
		ID:      "ablation-sched",
		Title:   "Data schedule vs Double-NN cost under a hot-spot workload, S = R = UNIF(-5.0)",
		XLabel:  "schedule",
		Metric:  "pages",
		Columns: []string{"access time", "tune-in time", "cycle S"},
	}
	pair := indexWorkloadPair(cfg.Seed)
	pair.WeightsS = hotSpotWeights(pair.S, pair.Region, cfg.HotSpotSigma)
	pair.WeightsR = hotSpotWeights(pair.R, pair.Region, cfg.HotSpotSigma)
	algos := []AlgoSpec{{Name: AlgoDouble, Algo: core.AlgoDouble}}
	for _, disks := range []int{0, 2, 3} {
		c := cfg
		c.Air.SkewDisks = disks
		label := "flat"
		if disks > 0 {
			label = fmt.Sprintf("skewed d=%d", disks)
		}
		st := RunPairing(pair, algos, c)[AlgoDouble]
		cycleS := pairAir(pair, c, false).CycleLen(0)
		t.AddRow(label, st.MeanAccess, st.MeanTuneIn, float64(cycleS))
	}
	return t
}

// hotSpotWeights returns per-object access weights proportional to the
// hot-spot query density at each object's location.
func hotSpotWeights(pts []geom.Point, region geom.Rect, sigma float64) []float64 {
	if len(pts) == 0 {
		return nil
	}
	cx := (region.Lo.X + region.Hi.X) / 2
	cy := (region.Lo.Y + region.Hi.Y) / 2
	sx := sigma * region.Width()
	sy := sigma * region.Height()
	w := make([]float64, len(pts))
	for i, p := range pts {
		dx := (p.X - cx) / sx
		dy := (p.Y - cy) / sy
		w[i] = math.Exp(-(dx*dx + dy*dy) / 2)
	}
	return w
}
