package experiments

import (
	"fmt"

	"tnnbcast/internal/core"
	"tnnbcast/internal/dataset"
)

// This file defines one runner per figure/table of the paper's evaluation.
// Each runner returns a Table whose rows are the x-axis of the original
// plot and whose columns are the algorithm variants shown in it.

// Runner executes one experiment.
type Runner func(Config) *Table

// Registry maps experiment IDs (the paper's figure/table numbers) to their
// runners.
var Registry = map[string]Runner{
	"fig9a":   Fig9a,
	"fig9b":   Fig9b,
	"fig9c":   Fig9c,
	"fig9d":   Fig9d,
	"fig11a":  Fig11a,
	"fig11b":  Fig11b,
	"fig11c":  Fig11c,
	"fig11d":  Fig11d,
	"fig12a":  Fig12a,
	"fig12b":  Fig12b,
	"fig12c":  Fig12c,
	"fig12d":  Fig12d,
	"fig13a":  Fig13a,
	"fig13b":  Fig13b,
	"tab3":    Table3,
	"grid":    Grid,
	"clients": MultiClient,
}

// Order lists the experiment IDs in the paper's order.
var Order = []string{
	"fig9a", "fig9b", "fig9c", "fig9d",
	"fig11a", "fig11b", "fig11c", "fig11d",
	"fig12a", "fig12b", "fig12c", "fig12d",
	"fig13a", "fig13b",
	"tab3", "grid", "clients",
}

// seriesPoint is one x-position of a figure: a label and the dataset
// pairing measured there.
type seriesPoint struct {
	label string
	pair  Pairing
}

// seriesTable runs every algorithm over every series point and tabulates
// the selected metric.
func seriesTable(id, title, xlabel, metric string, algos []AlgoSpec,
	points []seriesPoint, cfg Config, value func(Stats) float64) *Table {

	t := &Table{ID: id, Title: title, XLabel: xlabel, Metric: metric}
	for _, a := range algos {
		t.Columns = append(t.Columns, a.Name)
	}
	for _, pt := range points {
		stats := RunPairing(pt.pair, algos, cfg)
		vals := make([]float64, len(algos))
		for i, a := range algos {
			vals[i] = value(stats[a.Name])
		}
		t.AddRow(pt.label, vals...)
	}
	return t
}

func accessOf(s Stats) float64 { return s.MeanAccess }
func tuneInOf(s Stats) float64 { return s.MeanTuneIn }

func unifLabel(e float64) string { return fmt.Sprintf("UNIF(%.1f)", e) }

// sizeSeriesPoints builds the Fig. 9(a,b) x-axis: one dataset fixed at
// 10,000 points, the other swept over 2,000–30,000.
func sizeSeriesPoints(cfg Config, fixedS bool) []seriesPoint {
	var pts []seriesPoint
	for i, n := range dataset.SizeSeries() {
		seed := cfg.Seed + int64(i)*1000
		var p Pairing
		if fixedS {
			p = uniformPair(seed, 10000, n)
			p.Name = fmt.Sprintf("S=10000,R=%d", n)
		} else {
			p = uniformPair(seed, n, 10000)
			p.Name = fmt.Sprintf("S=%d,R=10000", n)
		}
		pts = append(pts, seriesPoint{label: fmt.Sprintf("%d", n), pair: p})
	}
	return pts
}

// densitySeriesPoints builds the density-sweep x-axis: S fixed at UNIF(sExp),
// R swept over rExps.
func densitySeriesPoints(cfg Config, sExp float64, rExps []float64) []seriesPoint {
	sizeS := dataset.DensityCount(sExp, dataset.PaperRegion)
	var pts []seriesPoint
	for i, e := range rExps {
		sizeR := dataset.DensityCount(e, dataset.PaperRegion)
		p := uniformPair(cfg.Seed+int64(i)*1000, sizeS, sizeR)
		p.Name = fmt.Sprintf("S=%s,R=%s", unifLabel(sExp), unifLabel(e))
		pts = append(pts, seriesPoint{label: unifLabel(e), pair: p})
	}
	return pts
}

// mirroredDensityPoints sweeps S with R fixed at UNIF(rExp).
func mirroredDensityPoints(cfg Config, sExps []float64, rExp float64) []seriesPoint {
	sizeR := dataset.DensityCount(rExp, dataset.PaperRegion)
	var pts []seriesPoint
	for i, e := range sExps {
		sizeS := dataset.DensityCount(e, dataset.PaperRegion)
		p := uniformPair(cfg.Seed+int64(i)*1000, sizeS, sizeR)
		p.Name = fmt.Sprintf("S=%s,R=%s", unifLabel(e), unifLabel(rExp))
		pts = append(pts, seriesPoint{label: unifLabel(e), pair: p})
	}
	return pts
}

// Fig9a reproduces Figure 9(a): access time with size(S) = 10,000 and
// size(R) swept over the size series.
func Fig9a(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig9a", "Access time, S = 10,000, R varies",
		"size(R)", "access time (pages)",
		cfg.resolveAlgos(ExactAlgos()), sizeSeriesPoints(cfg, true), cfg, accessOf)
}

// Fig9b reproduces Figure 9(b): access time with size(R) = 10,000 and
// size(S) swept.
func Fig9b(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig9b", "Access time, R = 10,000, S varies",
		"size(S)", "access time (pages)",
		cfg.resolveAlgos(ExactAlgos()), sizeSeriesPoints(cfg, false), cfg, accessOf)
}

// Fig9c reproduces Figure 9(c): access time with S = UNIF(-5.8) and the
// density of R swept over the full series.
func Fig9c(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig9c", "Access time, S = UNIF(-5.8), density of R varies",
		"R", "access time (pages)",
		cfg.resolveAlgos(ExactAlgos()), densitySeriesPoints(cfg, -5.8, dataset.DensityExponents), cfg, accessOf)
}

// Fig9d reproduces Figure 9(d): access time with S = UNIF(-5.0).
func Fig9d(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig9d", "Access time, S = UNIF(-5.0), density of R varies",
		"R", "access time (pages)",
		cfg.resolveAlgos(ExactAlgos()), densitySeriesPoints(cfg, -5.0, dataset.DensityExponents), cfg, accessOf)
}

// tuneInAlgos are the three guaranteed-correct algorithms compared on
// tune-in time in Fig. 11(a–c).
func tuneInAlgos() []AlgoSpec {
	return []AlgoSpec{
		{Name: AlgoWindow, Algo: core.AlgoWindow},
		{Name: AlgoDouble, Algo: core.AlgoDouble},
		{Name: AlgoHybrid, Algo: core.AlgoHybrid},
	}
}

// Fig11a reproduces Figure 11(a): tune-in time with S = UNIF(-4.2).
func Fig11a(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig11a", "Tune-in time, S = UNIF(-4.2), density of R varies",
		"R", "tune-in time (pages)",
		cfg.resolveAlgos(tuneInAlgos()), densitySeriesPoints(cfg, -4.2, dataset.DensityExponents), cfg, tuneInOf)
}

// Fig11b reproduces Figure 11(b): tune-in time with S = UNIF(-5.0).
func Fig11b(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig11b", "Tune-in time, S = UNIF(-5.0), density of R varies",
		"R", "tune-in time (pages)",
		cfg.resolveAlgos(tuneInAlgos()), densitySeriesPoints(cfg, -5.0, dataset.DensityExponents), cfg, tuneInOf)
}

// Fig11c reproduces Figure 11(c): tune-in time with S = UNIF(-7.0).
func Fig11c(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig11c", "Tune-in time, S = UNIF(-7.0), density of R varies",
		"R", "tune-in time (pages)",
		cfg.resolveAlgos(tuneInAlgos()), densitySeriesPoints(cfg, -7.0, dataset.DensityExponents), cfg, tuneInOf)
}

// Fig11d reproduces Figure 11(d): tune-in time with S = UNIF(-5.0)
// including the Approximate-TNN baseline, whose computationally estimated
// search range inflates the filter phase dramatically.
func Fig11d(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig11d", "Tune-in time incl. Approximate-TNN, S = UNIF(-5.0)",
		"R", "tune-in time (pages)",
		cfg.resolveAlgos(ExactAlgos()), densitySeriesPoints(cfg, -5.0, dataset.DensityExponents), cfg, tuneInOf)
}

// annCompareAlgos pairs each of Window-Based and Double-NN with its ANN
// variant under the given configuration.
func annCompareAlgos(ann core.ANNConfig) []AlgoSpec {
	return []AlgoSpec{
		{Name: AlgoWindow + " eNN", Algo: core.AlgoWindow},
		{Name: AlgoWindow + " ANN", Algo: core.AlgoWindow, ANN: ann},
		{Name: AlgoDouble + " eNN", Algo: core.AlgoDouble},
		{Name: AlgoDouble + " ANN", Algo: core.AlgoDouble, ANN: ann},
	}
}

// Fig12a reproduces Figure 12(a): ANN vs eNN tune-in time for Window-Based
// and Double-NN on equal-size datasets with factor = 1, page capacity 64 B.
func Fig12a(cfg Config) *Table {
	cfg = cfg.Defaults()
	var pts []seriesPoint
	for i, n := range []int{2000, 6000, 10000, 14000, 18000, 22000, 26000, 30000} {
		p := uniformPair(cfg.Seed+int64(i)*1000, n, n)
		p.Name = fmt.Sprintf("S=R=%d", n)
		pts = append(pts, seriesPoint{label: fmt.Sprintf("%d", n), pair: p})
	}
	return seriesTable("fig12a", "ANN vs eNN, equal sizes, factor = 1",
		"size(S)=size(R)", "tune-in time (pages)",
		annCompareAlgos(core.UniformANN(core.FactorWindowDouble)), pts, cfg, tuneInOf)
}

// Fig12b reproduces Figure 12(b): density(S) > density(R); the
// density-aware rule runs exact search on sparse R and ANN (factor = 1) on
// dense S.
func Fig12b(cfg Config) *Table {
	cfg = cfg.Defaults()
	sparser := []float64{-7.0, -6.6, -6.2, -5.8, -5.4}
	ann := core.ANNConfig{FactorS: core.FactorWindowDouble, FactorR: 0}
	return seriesTable("fig12b", "ANN with density(S) > density(R), S = UNIF(-5.0)",
		"R", "tune-in time (pages)",
		annCompareAlgos(ann), densitySeriesPoints(cfg, -5.0, sparser), cfg, tuneInOf)
}

// Fig12c reproduces Figure 12(c): density(R) > density(S); exact search on
// sparse S, ANN on dense R.
func Fig12c(cfg Config) *Table {
	cfg = cfg.Defaults()
	sparser := []float64{-7.0, -6.6, -6.2, -5.8, -5.4}
	ann := core.ANNConfig{FactorS: 0, FactorR: core.FactorWindowDouble}
	return seriesTable("fig12c", "ANN with density(R) > density(S), R = UNIF(-5.0)",
		"S", "tune-in time (pages)",
		annCompareAlgos(ann), mirroredDensityPoints(cfg, sparser, -5.0), cfg, tuneInOf)
}

// Fig12d reproduces Figure 12(d): ANN on the real datasets, S = CITY and
// R = POST (scaled to the common region), across all four page capacities.
func Fig12d(cfg Config) *Table {
	cfg = cfg.Defaults()
	city := dataset.City(cfg.Seed + 71)
	post := dataset.Scale(dataset.Post(cfg.Seed+72), dataset.PostRegion, dataset.PaperRegion)
	// POST is the denser side; the density-aware rule approximates only R.
	// Real (clustered) data tolerates less approximation than uniform data —
	// greedy descent quality degrades faster — so the experiment runs at
	// half the uniform-data factor (see EXPERIMENTS.md).
	ann := core.DensityAwareANN(len(city), len(post), core.FactorWindowDouble/2)

	t := &Table{
		ID:     "fig12d",
		Title:  "ANN on real data, S = CITY, R = POST",
		XLabel: "page capacity (bytes)",
		Metric: "tune-in time (pages)",
	}
	algos := annCompareAlgos(ann)
	for _, a := range algos {
		t.Columns = append(t.Columns, a.Name)
	}
	for _, pageCap := range []int{64, 128, 256, 512} {
		c := cfg
		c.Air.Params.PageCap = pageCap
		stats := RunPairing(Pairing{
			Name: "CITYxPOST", S: city, R: post, Region: dataset.PaperRegion,
		}, algos, c)
		vals := make([]float64, len(algos))
		for i, a := range algos {
			vals[i] = stats[a.Name].MeanTuneIn
		}
		t.AddRow(fmt.Sprintf("%d", pageCap), vals...)
	}
	return t
}

// hybridANNAlgos compares exact Hybrid-NN against its ANN variants with the
// paper's factors: 1/150 and 1/200 of the Window/Double adjustment factor.
func hybridANNAlgos() []AlgoSpec {
	return []AlgoSpec{
		{Name: AlgoHybrid + " eNN", Algo: core.AlgoHybrid},
		{Name: AlgoHybrid + " ANN f/150", Algo: core.AlgoHybrid,
			ANN: core.UniformANN(core.FactorWindowDouble / 150)},
		{Name: AlgoHybrid + " ANN f/200", Algo: core.AlgoHybrid,
			ANN: core.UniformANN(core.FactorWindowDouble / 200)},
	}
}

// Fig13a reproduces Figure 13(a): Hybrid-NN with ANN, S = UNIF(-5.0).
func Fig13a(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig13a", "Hybrid-NN with ANN, S = UNIF(-5.0)",
		"R", "tune-in time (pages)",
		hybridANNAlgos(), densitySeriesPoints(cfg, -5.0, dataset.DensityExponents), cfg, tuneInOf)
}

// Fig13b reproduces Figure 13(b): Hybrid-NN with ANN, S = UNIF(-5.4).
func Fig13b(cfg Config) *Table {
	cfg = cfg.Defaults()
	return seriesTable("fig13b", "Hybrid-NN with ANN, S = UNIF(-5.4)",
		"R", "tune-in time (pages)",
		hybridANNAlgos(), densitySeriesPoints(cfg, -5.4, dataset.DensityExponents), cfg, tuneInOf)
}

// Table3 reproduces Table 3: Approximate-TNN-Search's average fail rate per
// distribution combination, averaged over page capacities 64–512 B.
// Double-NN and Hybrid-NN are included to confirm their 0% fail rate.
func Table3(cfg Config) *Table {
	cfg = cfg.Defaults()
	cfg.Verify = true

	city := dataset.City(cfg.Seed + 81)
	post := dataset.Scale(dataset.Post(cfg.Seed+82), dataset.PostRegion, dataset.PaperRegion)

	combos := []struct {
		name  string
		pairs []Pairing
	}{
		{"uni-uni", func() []Pairing {
			var ps []Pairing
			for i, e := range dataset.DensityExponents {
				n := dataset.DensityCount(e, dataset.PaperRegion)
				p := uniformPair(cfg.Seed+int64(i)*100, n, n)
				p.Name = "uni-uni/" + unifLabel(e)
				ps = append(ps, p)
			}
			return ps
		}()},
		{"uni-real", func() []Pairing {
			var ps []Pairing
			for i, e := range dataset.DensityExponents {
				n := dataset.DensityCount(e, dataset.PaperRegion)
				ps = append(ps, Pairing{
					Name:   "uni-real/" + unifLabel(e),
					S:      dataset.Uniform(cfg.Seed+int64(i)*100+7, n, dataset.PaperRegion),
					R:      city,
					Region: dataset.PaperRegion,
				})
			}
			return ps
		}()},
		{"real-uni", func() []Pairing {
			var ps []Pairing
			for i, e := range dataset.DensityExponents {
				n := dataset.DensityCount(e, dataset.PaperRegion)
				ps = append(ps, Pairing{
					Name:   "real-uni/" + unifLabel(e),
					S:      city,
					R:      dataset.Uniform(cfg.Seed+int64(i)*100+13, n, dataset.PaperRegion),
					Region: dataset.PaperRegion,
				})
			}
			return ps
		}()},
		{"real-real", []Pairing{{
			Name: "real-real/CITYxPOST", S: city, R: post, Region: dataset.PaperRegion,
		}}},
	}

	algos := []AlgoSpec{
		{Name: AlgoApproximate, Algo: core.AlgoApprox},
		{Name: AlgoDouble, Algo: core.AlgoDouble},
		{Name: AlgoHybrid, Algo: core.AlgoHybrid},
	}

	t := &Table{
		ID:      "tab3",
		Title:   "Approximate-TNN-Search average fail rate by distribution",
		XLabel:  "combination",
		Metric:  "fail rate (fraction of queries)",
		Columns: []string{AlgoApproximate, AlgoDouble, AlgoHybrid},
	}
	for _, combo := range combos {
		sums := map[string]float64{}
		runs := 0
		for _, pageCap := range []int{64, 128, 256, 512} {
			for _, p := range combo.pairs {
				c := cfg
				c.Air.Params.PageCap = pageCap
				stats := RunPairing(p, algos, c)
				for _, a := range algos {
					sums[a.Name] += stats[a.Name].FailRate
				}
				runs++
			}
		}
		t.AddRow(combo.name,
			sums[AlgoApproximate]/float64(runs),
			sums[AlgoDouble]/float64(runs),
			sums[AlgoHybrid]/float64(runs))
	}
	return t
}

// Grid runs the full 8×8 density grid of the authors' technical report:
// for every (density(S), density(R)) combination it reports the access-time
// ratio Double-NN / Window-Based, the quantity behind the paper's
// "size(R)/40 ≤ size(S) ≤ 1.8·size(R)" improvement band.
func Grid(cfg Config) *Table {
	cfg = cfg.Defaults()
	t := &Table{
		ID:     "grid",
		Title:  "Access-time ratio Double-NN / Window-Based over the density grid",
		XLabel: "S \\ R",
		Metric: "access-time ratio (<1 means Double-NN wins)",
	}
	for _, e := range dataset.DensityExponents {
		t.Columns = append(t.Columns, unifLabel(e))
	}
	algos := []AlgoSpec{
		{Name: AlgoWindow, Algo: core.AlgoWindow},
		{Name: AlgoDouble, Algo: core.AlgoDouble},
	}
	for i, se := range dataset.DensityExponents {
		vals := make([]float64, 0, len(dataset.DensityExponents))
		for j, re := range dataset.DensityExponents {
			sizeS := dataset.DensityCount(se, dataset.PaperRegion)
			sizeR := dataset.DensityCount(re, dataset.PaperRegion)
			p := uniformPair(cfg.Seed+int64(i*8+j)*100, sizeS, sizeR)
			p.Name = fmt.Sprintf("grid/%s-%s", unifLabel(se), unifLabel(re))
			stats := RunPairing(p, algos, cfg)
			vals = append(vals, stats[AlgoDouble].MeanAccess/stats[AlgoWindow].MeanAccess)
		}
		t.AddRow(unifLabel(se), vals...)
	}
	return t
}
