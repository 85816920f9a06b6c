package tnnbcast_test

// End-to-end tests of the pluggable air-index architecture through the
// public API: every algorithm must produce the exact answer on every index
// family, on dedicated channels and on the multiplexed single channel, and
// batch execution must match sequential execution scheme by scheme.

import (
	"math"
	"testing"

	"tnnbcast"
)

// schemeVariants are the option sets that exercise every index family and
// scheduler combination.
func schemeVariants(wS, wR []float64) map[string][]tnnbcast.Option {
	return map[string][]tnnbcast.Option{
		"distributed": {tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex)},
		"distributed-cut1": {
			tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex),
			tnnbcast.WithReplicatedLevels(1),
		},
		"preorder-skewed": {
			tnnbcast.WithSkewedSchedule(2, 2),
			tnnbcast.WithAccessWeights(wS, wR),
		},
		"distributed-skewed": {
			tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex),
			tnnbcast.WithSkewedSchedule(3, 2),
			tnnbcast.WithAccessWeights(wS, wR),
		},
	}
}

func testWeights(region tnnbcast.Rect, pts []tnnbcast.Point) []float64 {
	w := make([]float64, len(pts))
	for i, p := range pts {
		// Hotter toward the region center.
		dx := p.X - (region.Lo.X+region.Hi.X)/2
		dy := p.Y - (region.Lo.Y+region.Hi.Y)/2
		w[i] = 1 / (1 + math.Hypot(dx, dy))
	}
	return w
}

func TestIndexSchemesExactAnswers(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(1000, 1000))
	s := tnnbcast.UniformDataset(11, 500, region)
	r := tnnbcast.UniformDataset(12, 400, region)
	wS, wR := testWeights(region, s), testWeights(region, r)

	queries := []tnnbcast.Point{
		tnnbcast.Pt(500, 500), tnnbcast.Pt(10, 990), tnnbcast.Pt(777, 123),
	}
	for name, opts := range schemeVariants(wS, wR) {
		for _, single := range []bool{false, true} {
			o := append([]tnnbcast.Option{
				tnnbcast.WithRegion(region), tnnbcast.WithPhases(111, 222),
			}, opts...)
			label := name
			if single {
				o = append(o, tnnbcast.WithSingleChannel())
				label += "/single-channel"
			}
			sys, err := tnnbcast.New(s, r, o...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, q := range queries {
				want, ok := sys.Exact(q)
				if !ok {
					t.Fatalf("%s: oracle failed", label)
				}
				for _, algo := range []tnnbcast.Algorithm{
					tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid,
				} {
					res := sys.Query(q, algo)
					if !res.Found {
						t.Fatalf("%s %v: no answer", label, algo)
					}
					if math.Abs(res.Dist-want.Dist) > 1e-9*(1+want.Dist) {
						t.Fatalf("%s %v: dist %v, oracle %v", label, algo, res.Dist, want.Dist)
					}
					if res.TuneIn <= 0 || res.AccessTime <= 0 {
						t.Fatalf("%s %v: bad metrics %+v", label, algo, res)
					}
				}
			}
		}
	}
}

func TestIndexSchemesBatchMatchesSequential(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(1000, 1000))
	s := tnnbcast.UniformDataset(21, 300, region)
	r := tnnbcast.UniformDataset(22, 250, region)

	sys, err := tnnbcast.New(s, r,
		tnnbcast.WithRegion(region),
		tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex),
		tnnbcast.WithPhases(5, 99))
	if err != nil {
		t.Fatal(err)
	}
	var batch []tnnbcast.Request
	algos := []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
	}
	for i := 0; i < 24; i++ {
		batch = append(batch, tnnbcast.Request{
			Point:   tnnbcast.Pt(float64(37*i%1000), float64(73*i%1000)),
			Algo:    algos[i%len(algos)],
			Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(int64(i * 11))},
		})
	}
	resps := mustBatch(t, sys, batch)
	for i, q := range batch {
		got, want := resps[i].Result, sys.Query(q.Point, q.Algo, q.Options...)
		if got.Found != want.Found || got.Dist != want.Dist ||
			got.AccessTime != want.AccessTime || got.TuneIn != want.TuneIn {
			t.Fatalf("query %d: batch %+v != sequential %+v", i, got, want)
		}
	}
}

func TestChannelStatsReportScheme(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(1000, 1000))
	s := tnnbcast.UniformDataset(31, 200, region)
	r := tnnbcast.UniformDataset(32, 200, region)

	pre, err := tnnbcast.New(s, r)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := tnnbcast.New(s, r, tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex))
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := pre.ChannelStats()
	ds, _ := dist.ChannelStats()
	if ps.Scheme != "preorder" || ds.Scheme != "distributed" {
		t.Fatalf("schemes %q / %q", ps.Scheme, ds.Scheme)
	}
	// The distributed index replicates only root-to-branch paths, so its
	// cycle must be shorter than (1,m)'s whenever m > 1.
	if ps.Interleave > 1 && ds.CycleLen >= ps.CycleLen {
		t.Errorf("distributed cycle %d not shorter than preorder %d (m=%d)",
			ds.CycleLen, ps.CycleLen, ps.Interleave)
	}
	if ds.Interleave < 2 {
		t.Errorf("distributed index has %d entry points", ds.Interleave)
	}
}

func TestUnknownIndexSchemeRejected(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(100, 100))
	s := tnnbcast.UniformDataset(51, 30, region)
	r := tnnbcast.UniformDataset(52, 30, region)
	if _, err := tnnbcast.New(s, r, tnnbcast.WithIndexScheme(tnnbcast.IndexScheme(7))); err == nil {
		t.Fatal("out-of-range IndexScheme accepted by New")
	}
	if _, err := tnnbcast.NewChain([][]tnnbcast.Point{s, r},
		tnnbcast.WithIndexScheme(tnnbcast.IndexScheme(-1))); err == nil {
		t.Fatal("out-of-range IndexScheme accepted by NewChain")
	}
}

func TestSkewedScheduleValidation(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(100, 100))
	s := tnnbcast.UniformDataset(55, 30, region)
	r := tnnbcast.UniformDataset(56, 30, region)
	for _, bad := range [][2]int{{0, 2}, {-1, 2}, {80, 2}, {2, 1}, {2, 0}, {2, 64}} {
		if _, err := tnnbcast.New(s, r, tnnbcast.WithSkewedSchedule(bad[0], bad[1])); err == nil {
			t.Errorf("WithSkewedSchedule(%d, %d) accepted", bad[0], bad[1])
		}
	}
	if _, err := tnnbcast.New(s, r, tnnbcast.WithSkewedSchedule(3, 2)); err != nil {
		t.Fatalf("valid skew rejected: %v", err)
	}
}

func TestChainWeightValidation(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(100, 100))
	s := tnnbcast.UniformDataset(53, 30, region)
	r := tnnbcast.UniformDataset(54, 25, region)
	// Weight vectors alternate across chain channels like phases do, so a
	// mismatched S-side vector must be rejected against dataset 0.
	_, err := tnnbcast.NewChain([][]tnnbcast.Point{s, r},
		tnnbcast.WithSkewedSchedule(2, 2),
		tnnbcast.WithAccessWeights(make([]float64, 7), nil))
	if err == nil {
		t.Fatal("mismatched chain weights accepted")
	}
	if _, ok := err.(*tnnbcast.InvalidWeightError); !ok {
		t.Fatalf("error %v is not *InvalidWeightError", err)
	}
	// Correctly sized vectors build a skewed chain.
	if _, err := tnnbcast.NewChain([][]tnnbcast.Point{s, r},
		tnnbcast.WithSkewedSchedule(2, 2),
		tnnbcast.WithAccessWeights(make([]float64, 30), make([]float64, 25))); err != nil {
		t.Fatalf("valid chain weights rejected: %v", err)
	}
}

func TestAccessWeightValidation(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(100, 100))
	s := tnnbcast.UniformDataset(41, 50, region)
	r := tnnbcast.UniformDataset(42, 50, region)

	cases := []struct {
		name   string
		wS, wR []float64
	}{
		{"length mismatch", make([]float64, 7), nil},
		{"negative", negAt(make([]float64, 50), 3), nil},
		{"NaN on R", nil, nanAt(make([]float64, 50), 0)},
	}
	for _, c := range cases {
		_, err := tnnbcast.New(s, r,
			tnnbcast.WithSkewedSchedule(2, 2),
			tnnbcast.WithAccessWeights(c.wS, c.wR))
		var werr *tnnbcast.InvalidWeightError
		if err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if !asWeightErr(err, &werr) {
			t.Fatalf("%s: error %v is not *InvalidWeightError", c.name, err)
		}
	}

	// Valid weights without a skewed schedule are fine too (ignored).
	if _, err := tnnbcast.New(s, r, tnnbcast.WithAccessWeights(make([]float64, 50), nil)); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
}

func negAt(w []float64, i int) []float64 {
	w[i] = -1
	return w
}

func nanAt(w []float64, i int) []float64 {
	w[i] = math.NaN()
	return w
}

func asWeightErr(err error, target **tnnbcast.InvalidWeightError) bool {
	e, ok := err.(*tnnbcast.InvalidWeightError)
	if ok {
		*target = e
	}
	return ok
}
