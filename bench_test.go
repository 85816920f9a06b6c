package tnnbcast_test

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus micro-benchmarks of the substrates. Each figure benchmark executes
// its experiment runner (internal/experiments) and reports the paper's two
// metrics for a representative configuration as custom benchmark metrics
// (pages/query). Full series output — the rows the paper plots — comes
// from `go run ./cmd/tnnbench -exp <id>`.
//
// BENCH_QUERIES (env) overrides the per-configuration query count used by
// the figure benchmarks (default 50; the paper uses 1,000).

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/experiments"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

func benchQueries() int {
	if s := os.Getenv("BENCH_QUERIES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 50
}

// benchFigure runs one experiment per iteration and reports the mean
// access time and tune-in time of the table's last row (the densest
// configuration) for its first and last columns.
func benchFigure(b *testing.B, id string) {
	cfg := experiments.Config{Queries: benchQueries(), Seed: 17}
	b.ReportAllocs()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Registry[id](cfg)
	}
	if tab != nil && len(tab.Rows) > 0 {
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(last.Values[0], metricUnit(tab.Columns[0]))
		b.ReportMetric(last.Values[len(last.Values)-1],
			metricUnit(tab.Columns[len(tab.Columns)-1]))
	}
}

// metricUnit turns an algorithm column label into a benchmark metric unit
// (no whitespace allowed).
func metricUnit(column string) string {
	return strings.ReplaceAll(column, " ", "_") + "_pages"
}

// Figure 9: access time.
func BenchmarkFig9a(b *testing.B) { benchFigure(b, "fig9a") }
func BenchmarkFig9b(b *testing.B) { benchFigure(b, "fig9b") }
func BenchmarkFig9c(b *testing.B) { benchFigure(b, "fig9c") }
func BenchmarkFig9d(b *testing.B) { benchFigure(b, "fig9d") }

// Figure 11: tune-in time.
func BenchmarkFig11a(b *testing.B) { benchFigure(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchFigure(b, "fig11b") }
func BenchmarkFig11c(b *testing.B) { benchFigure(b, "fig11c") }
func BenchmarkFig11d(b *testing.B) { benchFigure(b, "fig11d") }

// Figure 12: the ANN optimization.
func BenchmarkFig12a(b *testing.B) { benchFigure(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchFigure(b, "fig12b") }
func BenchmarkFig12c(b *testing.B) { benchFigure(b, "fig12c") }
func BenchmarkFig12d(b *testing.B) { benchFigure(b, "fig12d") }

// Figure 13: Hybrid-NN with ANN.
func BenchmarkFig13a(b *testing.B) { benchFigure(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchFigure(b, "fig13b") }

// Table 3: Approximate-TNN fail rates. The reported metric is the
// real-real fail rate (the paper's headline 43.2%).
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.Config{Queries: benchQueries(), Seed: 17}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Table3(cfg)
	}
	if tab != nil {
		b.ReportMetric(tab.Rows[len(tab.Rows)-1].Values[0], "realreal_failrate")
	}
}

// --- per-query benchmarks on a fixed broadcast -------------------------

func benchSystem(b *testing.B) *tnnbcast.System {
	b.Helper()
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(1, 15210, region)
	r := tnnbcast.UniformDataset(2, 15210, region)
	sys, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region), tnnbcast.WithPhases(7919, 104729))
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchQuery(b *testing.B, algo tnnbcast.Algorithm, opts ...tnnbcast.QueryOption) {
	sys := benchSystem(b)
	qs := tnnbcast.UniformDataset(3, 256, tnnbcast.PaperRegion)
	b.ReportAllocs()
	b.ResetTimer()
	var access, tunein int64
	for i := 0; i < b.N; i++ {
		res := sys.Query(qs[i%len(qs)], algo, opts...)
		access += res.AccessTime
		tunein += res.TuneIn
	}
	b.ReportMetric(float64(access)/float64(b.N), "access_pages")
	b.ReportMetric(float64(tunein)/float64(b.N), "tunein_pages")
}

func BenchmarkQueryWindowBased(b *testing.B) { benchQuery(b, tnnbcast.Window) }
func BenchmarkQueryDoubleNN(b *testing.B)    { benchQuery(b, tnnbcast.Double) }
func BenchmarkQueryHybridNN(b *testing.B)    { benchQuery(b, tnnbcast.Hybrid) }
func BenchmarkQueryApproximate(b *testing.B) { benchQuery(b, tnnbcast.Approximate) }
func BenchmarkQueryDoubleANN(b *testing.B) {
	benchQuery(b, tnnbcast.Double, tnnbcast.WithANN(tnnbcast.FactorWindowDouble))
}

// --- substrate micro-benchmarks ----------------------------------------

func BenchmarkRTreeBuildSTR(b *testing.B) {
	pts := dataset.Uniform(5, 15210, dataset.PaperRegion)
	cfg := rtree.Config{LeafCap: 6, NodeCap: 3, Packing: rtree.STR}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.Build(pts, cfg)
	}
}

func BenchmarkRTreeBuildHilbert(b *testing.B) {
	pts := dataset.Uniform(5, 15210, dataset.PaperRegion)
	cfg := rtree.Config{LeafCap: 6, NodeCap: 3, Packing: rtree.HilbertSort}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.Build(pts, cfg)
	}
}

func BenchmarkRTreeNN(b *testing.B) {
	pts := dataset.Uniform(5, 15210, dataset.PaperRegion)
	tree := rtree.Build(pts, rtree.Config{LeafCap: 6, NodeCap: 3})
	qs := dataset.Uniform(6, 256, dataset.PaperRegion)
	tree.Root() // the oracle's pointer image is rebuilt on first use
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.NN(qs[i%len(qs)])
	}
}

// retainedPerPoint returns the live heap build's result keeps per point,
// read after a GC with the result live, less the same reading before the
// build: the resident set, where perfbench's heap_peak_mb also counts
// garbage.
func retainedPerPoint(points int, build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(points)
}

// BenchmarkBroadcastProgramBuild guards the build of the paper's preorder
// (1,m) air index over a packed 15,210-point tree. Its retained-B/point
// metric is what the built index keeps beyond the tree.
func BenchmarkBroadcastProgramBuild(b *testing.B) {
	pts := dataset.Uniform(5, 15210, dataset.PaperRegion)
	p := broadcast.DefaultParams()
	tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
	retained := retainedPerPoint(len(pts), func() any {
		return broadcast.BuildIndex(tree, p, broadcast.IndexSpec{})
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broadcast.BuildIndex(tree, p, broadcast.IndexSpec{})
	}
	b.ReportMetric(retained, "retained-B/point")
}

// BenchmarkBuildIndexDistributed guards the build layer behind
// session-lossy's setup: an rtree pack plus a distributed index over
// 15,210 uniform points. Its retained-B/point metric is the live heap the
// built tree and index keep.
func BenchmarkBuildIndexDistributed(b *testing.B) {
	pts := dataset.Uniform(5, 15210, dataset.PaperRegion)
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	spec := broadcast.IndexSpec{Scheme: broadcast.SchemeDistributed}
	retained := retainedPerPoint(len(pts), func() any {
		return broadcast.BuildIndex(rtree.Build(pts, cfg), p, spec)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broadcast.BuildIndex(rtree.Build(pts, cfg), p, spec)
	}
	b.ReportMetric(retained, "retained-B/point")
}

// BenchmarkNew guards the build layer behind perfbench's setup_s: New
// over two 15,210-point uniform datasets packs both R-trees, builds both
// air indexes and puts them on their channels.
func BenchmarkNew(b *testing.B) {
	s := tnnbcast.UniformDataset(1, 15210, tnnbcast.PaperRegion)
	r := tnnbcast.UniformDataset(2, 15210, tnnbcast.PaperRegion)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tnnbcast.New(s, r, tnnbcast.WithRegion(tnnbcast.PaperRegion)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCityPost times New at session-lossy's sizes: the CITY
// substitute (about 6,000 points) and the POST substitute (about 100,000)
// on a distributed index. The sizes are unequal, so building the two
// datasets at once saves little here and the packer's sort is most of the
// time.
func BenchmarkNewCityPost(b *testing.B) {
	s := tnnbcast.CityDataset(2)
	r := tnnbcast.PostDataset(2, tnnbcast.PaperRegion)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tnnbcast.New(s, r, tnnbcast.WithRegion(tnnbcast.PaperRegion),
			tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex)); err != nil {
			b.Fatal(err)
		}
	}
}

// arrivalChannels builds one channel per air-index family (the paper's
// preorder (1,m) program, the distributed index with replicated upper
// levels, and the preorder layout under a skewed broadcast-disks data
// schedule — a node's arrival is a search over its segment range, an
// object's over its first-page slots, one slot when it airs once), for
// the arrival-query microbenchmarks. These queries sit on the query
// hot path — once per enqueued candidate — so each family's cost is
// guarded separately, plus the session engine's MemoFeed wrapper over the
// most general one, which must cost no more than its one forwarding call,
// and the preorder program's share of a channel it multiplexes with the
// distributed one, whose arrivals also wait out the other share.
func arrivalChannels(b *testing.B) map[string]broadcast.Feed {
	b.Helper()
	pts := dataset.Uniform(5, 15210, dataset.PaperRegion)
	p := broadcast.DefaultParams()
	tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
	weights := make([]float64, tree.Count)
	for i := range weights {
		weights[i] = 1 + float64(i%7)
	}
	feeds := map[string]broadcast.Feed{
		"preorder": broadcast.NewChannel(broadcast.BuildIndex(tree, p, broadcast.IndexSpec{}), 12345),
		"distributed": broadcast.NewChannel(broadcast.BuildIndex(tree, p,
			broadcast.IndexSpec{Scheme: broadcast.SchemeDistributed}), 12345),
		"skewed": broadcast.NewChannel(broadcast.BuildIndex(tree, p,
			broadcast.IndexSpec{Sched: broadcast.SkewedScheduler{Disks: 2, Ratio: 2}, Weights: weights}), 12345),
	}
	feeds["distributed+memo"] = broadcast.NewMemoFeed(feeds["distributed"])
	feeds["multiplexed"], _ = broadcast.Multiplex(feeds["preorder"].Index(), feeds["distributed"].Index(), 12345)
	return feeds
}

func BenchmarkNextNodeArrival(b *testing.B) {
	feeds := arrivalChannels(b)
	for _, name := range []string{"preorder", "distributed", "skewed", "distributed+memo", "multiplexed"} {
		b.Run(name, func(b *testing.B) {
			ch := feeds[name]
			n := ch.Index().NumIndexPages()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.NextNodeArrival(i%n, int64(i)*37)
			}
		})
	}
}

// BenchmarkChildArrival guards how a search derives a child's arrival
// after receiving its parent: the parent's slot plus the index's pointer
// table entry, or the feed's NextNodeArrival where the entry is 0. It
// walks every child entry from its parent's first broadcast after slot
// 12345 and reports the share the table serves.
func BenchmarkChildArrival(b *testing.B) {
	feeds := arrivalChannels(b)
	for _, name := range []string{"preorder", "distributed"} {
		b.Run(name, func(b *testing.B) {
			ch := feeds[name]
			idx := ch.Index()
			f, delays := idx.Tree().Flat(), idx.ChildDelays()
			slots := make([]int64, len(f.Key)) // the parent's slot, per entry
			served := 0
			for p := range f.EntFirst {
				first, end := f.EntRange(int32(p))
				for e := first; e < end; e++ {
					slots[e] = ch.NextNodeArrival(p, 12345)
					if delays[e] != 0 {
						served++
					}
				}
			}
			var sink int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := i % len(slots)
				if d := delays[e]; d != 0 {
					sink += slots[e] + int64(d)
				} else {
					sink += ch.NextNodeArrival(int(f.Key[e]), slots[e]+1)
				}
			}
			b.StopTimer()
			if sink == 0 {
				b.Fatal("no arrivals")
			}
			b.ReportMetric(float64(served)/float64(len(slots)), "table_frac")
		})
	}
}

func BenchmarkNextObjectArrival(b *testing.B) {
	feeds := arrivalChannels(b)
	for _, name := range []string{"preorder", "distributed", "skewed", "distributed+memo", "multiplexed"} {
		b.Run(name, func(b *testing.B) {
			ch := feeds[name]
			n := ch.Index().Tree().Count
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.NextObjectArrival(i%n, int64(i)*37)
			}
		})
	}
}

func BenchmarkMinTransDist(b *testing.B) {
	m := geom.RectOf(geom.Pt(10, 10), geom.Pt(20, 25))
	p, r := geom.Pt(0, 0), geom.Pt(40, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.MinTransDist(p, m, r)
	}
}

func BenchmarkEllipseRectOverlap(b *testing.B) {
	e := geom.Ellipse{F1: geom.Pt(0, 0), F2: geom.Pt(30, 10), Major: 50}
	m := geom.RectOf(geom.Pt(5, -5), geom.Pt(25, 15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.EllipseRectOverlap(e, m)
	}
}

func BenchmarkCircleRectOverlap(b *testing.B) {
	c := geom.Circle{Center: geom.Pt(10, 10), R: 15}
	m := geom.RectOf(geom.Pt(5, -5), geom.Pt(25, 15))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geom.CircleRectOverlap(c, m)
	}
}

func BenchmarkOracleTNN(b *testing.B) {
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	treeS := rtree.Build(dataset.Uniform(5, 15210, dataset.PaperRegion), cfg)
	treeR := rtree.Build(dataset.Uniform(6, 15210, dataset.PaperRegion), cfg)
	qs := dataset.Uniform(7, 256, dataset.PaperRegion)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OracleTNN(qs[i%len(qs)], treeS, treeR)
	}
}

// --- extension benchmarks ----------------------------------------------

// benchVariant runs one Section-7 variant through System.Do.
func benchVariant(b *testing.B, v tnnbcast.Variant, k int) {
	sys := benchSystem(b)
	qs := tnnbcast.UniformDataset(3, 256, tnnbcast.PaperRegion)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Do(tnnbcast.Request{Point: qs[i%len(qs)], Variant: v, K: k}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTopK10(b *testing.B)    { benchVariant(b, tnnbcast.TopK, 10) }
func BenchmarkQueryRoundTrip(b *testing.B) { benchVariant(b, tnnbcast.RoundTrip, 0) }
func BenchmarkQueryUnordered(b *testing.B) { benchVariant(b, tnnbcast.Unordered, 0) }

// BenchmarkQueryBatch answers four Double-NN requests as one shared-cycle
// session on one worker: a small batch, where the per-call session set-up
// weighs against only four queries.
func BenchmarkQueryBatch(b *testing.B) {
	sys := benchSystem(b)
	qs := tnnbcast.UniformDataset(3, 256, tnnbcast.PaperRegion)
	reqs := make([]tnnbcast.Request, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j] = tnnbcast.Request{Point: qs[(i*len(reqs)+j)%len(qs)], Algo: tnnbcast.Double}
		}
		if _, err := sys.QueryBatch(reqs, tnnbcast.WithBatchWorkers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryChain3(b *testing.B) {
	region := tnnbcast.PaperRegion
	cs, err := tnnbcast.NewChain([][]tnnbcast.Point{
		tnnbcast.UniformDataset(1, 6055, region),
		tnnbcast.UniformDataset(2, 6055, region),
		tnnbcast.UniformDataset(3, 6055, region),
	}, tnnbcast.WithRegion(region))
	if err != nil {
		b.Fatal(err)
	}
	qs := tnnbcast.UniformDataset(4, 256, region)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Query(qs[i%len(qs)])
	}
}

func BenchmarkSingleChannelVsMulti(b *testing.B) {
	cfg := experiments.Config{Queries: benchQueries(), Seed: 17}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.SingleVsMultiChannel(cfg)
	}
	if tab != nil {
		b.ReportMetric(tab.Rows[4].Values[1], "access_ratio_double")
	}
}

func BenchmarkWireEncodeCycleIndex(b *testing.B) {
	air, err := broadcast.BuildAir([][]geom.Point{dataset.Uniform(5, 2411, dataset.PaperRegion)},
		broadcast.AirSpec{Params: broadcast.DefaultParams(), Phases: [2]int64{9}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := air.EncodeCycle(0); err != nil {
			b.Fatal(err)
		}
	}
}
