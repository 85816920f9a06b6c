package core

import (
	"math"
	"math/rand"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// testEnv bundles an environment with the in-memory trees for oracle use.
type testEnv struct {
	env          Env
	treeS, treeR *rtree.Tree
	ptsS, ptsR   []geom.Point
}

func uniformPts(rng *rand.Rand, n int, region geom.Rect) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			region.Lo.X+rng.Float64()*region.Width(),
			region.Lo.Y+rng.Float64()*region.Height(),
		)
	}
	return pts
}

func clusteredPts(rng *rand.Rand, n, clusters int, region geom.Rect) []geom.Point {
	centers := uniformPts(rng, clusters, region)
	sigma := region.Width() / 40
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		c := centers[rng.Intn(clusters)]
		p := geom.Pt(c.X+rng.NormFloat64()*sigma, c.Y+rng.NormFloat64()*sigma)
		if region.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

func makeEnv(t *testing.T, ptsS, ptsR []geom.Point, region geom.Rect, offS, offR int64) testEnv {
	t.Helper()
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	treeS := rtree.Build(ptsS, cfg)
	treeR := rtree.Build(ptsR, cfg)
	return testEnv{
		env: Env{
			ChS:    broadcast.NewChannel(broadcast.BuildIndex(treeS, p, broadcast.IndexSpec{}), offS),
			ChR:    broadcast.NewChannel(broadcast.BuildIndex(treeR, p, broadcast.IndexSpec{}), offR),
			Region: region,
		},
		treeS: treeS, treeR: treeR, ptsS: ptsS, ptsR: ptsR,
	}
}

// run answers one query with built-in algorithm a on the peek/step loop.
func run(env Env, a Algo, p geom.Point, opt Options) Result {
	res, _ := Run(env, a, p, opt)
	return res
}

// algoFunc binds a built-in algorithm for the table-driven tests.
func algoFunc(a Algo) func(Env, geom.Point, Options) Result {
	return func(env Env, p geom.Point, opt Options) Result { return run(env, a, p, opt) }
}

// drain steps one search to completion.
func drain(s interface {
	Peek() (int64, bool)
	Step()
}) {
	for _, done := s.Peek(); !done; _, done = s.Peek() {
		s.Step()
	}
}

var testRegion = geom.RectOf(geom.Pt(0, 0), geom.Pt(1000, 1000))

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestOracleAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		ptsS := uniformPts(rng, 40+rng.Intn(100), testRegion)
		ptsR := clusteredPts(rng, 30+rng.Intn(100), 4, testRegion)
		te := makeEnv(t, ptsS, ptsR, testRegion, 0, 0)
		for j := 0; j < 10; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got, ok := OracleTNN(p, te.treeS, te.treeR)
			_, _, want, ok2 := BruteTNN(p, ptsS, ptsR)
			if !ok || !ok2 {
				t.Fatal("oracle/brute failed on non-empty data")
			}
			if !almostEq(got.Dist, want, 1e-9) {
				t.Fatalf("oracle %v vs brute %v", got.Dist, want)
			}
		}
	}
}

func TestOracleEmpty(t *testing.T) {
	te := makeEnv(t, nil, []geom.Point{geom.Pt(1, 1)}, testRegion, 0, 0)
	if _, ok := OracleTNN(geom.Pt(0, 0), te.treeS, te.treeR); ok {
		t.Error("oracle on empty S should fail")
	}
	te2 := makeEnv(t, []geom.Point{geom.Pt(1, 1)}, nil, testRegion, 0, 0)
	if _, ok := OracleTNN(geom.Pt(0, 0), te2.treeS, te2.treeR); ok {
		t.Error("oracle on empty R should fail")
	}
}

// The three exact algorithms must always return the true TNN pair,
// regardless of channel phases and dataset shapes.
func TestExactAlgorithmsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	algos := map[string]func(Env, geom.Point, Options) Result{
		"DoubleNN":    algoFunc(AlgoDouble),
		"WindowBased": algoFunc(AlgoWindow),
		"HybridNN":    algoFunc(AlgoHybrid),
	}
	for i := 0; i < 12; i++ {
		var ptsS, ptsR []geom.Point
		if i%2 == 0 {
			ptsS = uniformPts(rng, 100+rng.Intn(400), testRegion)
			ptsR = uniformPts(rng, 100+rng.Intn(400), testRegion)
		} else {
			ptsS = clusteredPts(rng, 100+rng.Intn(300), 5, testRegion)
			ptsR = clusteredPts(rng, 50+rng.Intn(200), 3, testRegion)
		}
		te := makeEnv(t, ptsS, ptsR, testRegion, rng.Int63n(10000), rng.Int63n(10000))
		for j := 0; j < 8; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			want, _ := OracleTNN(p, te.treeS, te.treeR)
			opt := Options{Issue: rng.Int63n(100000)}
			for name, algo := range algos {
				got := algo(te.env, p, opt)
				if !got.Found {
					t.Fatalf("%s: not found", name)
				}
				if !almostEq(got.Pair.Dist, want.Dist, 1e-9) {
					t.Fatalf("%s: dist %v, oracle %v (i=%d j=%d)", name, got.Pair.Dist, want.Dist, i, j)
				}
			}
		}
	}
}

// The ANN optimization must not change the answer (Section 5: "ANN
// optimization technique does not affect the final answer to the TNN
// query"), for any factor.
func TestANNPreservesAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		ptsS := uniformPts(rng, 200+rng.Intn(300), testRegion)
		ptsR := clusteredPts(rng, 100+rng.Intn(300), 6, testRegion)
		te := makeEnv(t, ptsS, ptsR, testRegion, rng.Int63n(5000), rng.Int63n(5000))
		for j := 0; j < 5; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			want, _ := OracleTNN(p, te.treeS, te.treeR)
			for _, factor := range []float64{0.1, 0.5, 1.0, 2.0} {
				for name, algo := range map[string]func(Env, geom.Point, Options) Result{
					"DoubleNN": algoFunc(AlgoDouble), "WindowBased": algoFunc(AlgoWindow),
				} {
					got := algo(te.env, p, Options{ANN: UniformANN(factor)})
					if !got.Found || !almostEq(got.Pair.Dist, want.Dist, 1e-9) {
						t.Fatalf("%s ANN factor=%v: dist %v, oracle %v",
							name, factor, got.Pair.Dist, want.Dist)
					}
				}
				got := run(te.env, AlgoHybrid, p, Options{ANN: UniformANN(factor / 150)})
				if !got.Found || !almostEq(got.Pair.Dist, want.Dist, 1e-9) {
					t.Fatalf("HybridNN ANN: dist %v, oracle %v", got.Pair.Dist, want.Dist)
				}
			}
		}
	}
}

// Per-channel ANN properties: the approximate NN can never be closer than
// the exact NN, an approximate search always returns some point, and in
// aggregate it downloads fewer estimate-phase pages than exact search.
func TestANNSearchTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var exactPages, annPages int64
	looser := 0
	for i := 0; i < 10; i++ {
		ptsS := uniformPts(rng, 600, testRegion)
		te := makeEnv(t, ptsS, ptsS[:1], testRegion, rng.Int63n(5000), 0)
		for j := 0; j < 10; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)

			rxE := client.NewReceiver(te.env.ChS, 0)
			exact := NewScratch().nnSearch(rxE, p, 0, 16)
			drain(exact)
			_, dE, okE := exact.result()

			rxA := client.NewReceiver(te.env.ChS, 0)
			ann := NewScratch().nnSearch(rxA, p, 1, 16)
			drain(ann)
			_, dA, okA := ann.result()

			if !okE || !okA {
				t.Fatal("search returned no point on non-empty tree")
			}
			if dA < dE-1e-9 {
				t.Fatalf("ANN distance %v below exact %v", dA, dE)
			}
			if dA > dE+1e-9 {
				looser++
			}
			exactPages += rxE.Pages()
			annPages += rxA.Pages()
		}
	}
	if annPages >= exactPages {
		t.Errorf("ANN pages %d not below exact pages %d", annPages, exactPages)
	}
	if looser == 0 {
		t.Error("ANN never loosened the NN distance — approximation seems inert")
	}
}

func TestJoin(t *testing.T) {
	p := geom.Pt(0, 0)
	var ss, rs pointBuf
	ss.add(1, 0, 0)
	ss.add(5, 0, 1)
	rs.add(2, 0, 0)
	rs.add(9, 9, 1)
	got, ok := join1(p, Pair{}, false, &ss, &rs, false)
	if !ok {
		t.Fatal("join found nothing")
	}
	// Best: s=(1,0), r=(2,0): 1+1=2.
	if got.S.ID != 0 || got.R.ID != 0 || !almostEq(got.Dist, 2, 1e-12) {
		t.Fatalf("join = %+v", got)
	}

	// The incumbent survives when no candidate beats it.
	inc := Pair{S: ss.entry(0), R: rs.entry(0), Dist: 1.5} // artificially strong bound
	got, ok = join1(p, inc, true, &ss, &rs, false)
	if !ok || got.Dist != 1.5 {
		t.Fatalf("incumbent should survive: %+v", got)
	}

	// Empty candidate sets without incumbent: not found.
	if _, ok := join1(p, Pair{}, false, &pointBuf{}, &pointBuf{}, false); ok {
		t.Error("empty join should not find a pair")
	}
}

func TestApproxRadius(t *testing.T) {
	// Unit square, n=100, k=1: ln(100)·sqrt(1/(100π)).
	want := math.Log(100) * math.Sqrt(1/(100*math.Pi))
	if got := ApproxRadius(100, 1, 1); !almostEq(got, want, 1e-12) {
		t.Errorf("ApproxRadius = %v, want %v", got, want)
	}
	// Area scaling: a 4× area doubles the radius.
	if got := ApproxRadius(100, 1, 4); !almostEq(got, 2*want, 1e-12) {
		t.Errorf("scaled ApproxRadius = %v, want %v", got, 2*want)
	}
	if got := ApproxRadius(0, 1, 1); got != 0 {
		t.Errorf("n=0 radius = %v", got)
	}
}

func TestApproximateTNNUniformUsuallyCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	correct, total := 0, 0
	for i := 0; i < 5; i++ {
		ptsS := uniformPts(rng, 500, testRegion)
		ptsR := uniformPts(rng, 500, testRegion)
		te := makeEnv(t, ptsS, ptsR, testRegion, rng.Int63n(5000), rng.Int63n(5000))
		for j := 0; j < 20; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got := run(te.env, AlgoApprox, p, Options{})
			want, _ := OracleTNN(p, te.treeS, te.treeR)
			total++
			if got.Found && almostEq(got.Pair.Dist, want.Dist, 1e-9) {
				correct++
			}
		}
	}
	// The paper reports a 0% fail rate on uniform–uniform data.
	if correct != total {
		t.Errorf("Approximate-TNN failed %d/%d times on uniform data", total-correct, total)
	}
}

func TestMetricsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ptsS := uniformPts(rng, 400, testRegion)
	ptsR := uniformPts(rng, 400, testRegion)
	te := makeEnv(t, ptsS, ptsR, testRegion, 123, 4567)
	for _, algo := range []Algo{AlgoDouble, AlgoWindow, AlgoHybrid, AlgoApprox} {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		res := run(te.env, algo, p, Options{Issue: 42})
		if !res.Found {
			t.Fatal("not found")
		}
		if res.Metrics.TuneIn <= 0 || res.Metrics.AccessTime <= 0 {
			t.Fatalf("non-positive metrics: %+v", res.Metrics)
		}
		if res.EstimateTuneIn+res.FilterTuneIn != res.Metrics.TuneIn {
			t.Fatalf("phase split %d+%d != total %d",
				res.EstimateTuneIn, res.FilterTuneIn, res.Metrics.TuneIn)
		}
		if res.Metrics.TuneIn > res.Metrics.AccessTime*2 {
			t.Fatalf("tune-in %d exceeds both channels' access window %d",
				res.Metrics.TuneIn, res.Metrics.AccessTime*2)
		}
		// SkipDataRetrieval strictly reduces both metrics.
		res2 := run(te.env, algo, p, Options{Issue: 42, SkipDataRetrieval: true})
		ppo := int64(te.env.ChS.Index().PagesPerObject())
		if res2.Metrics.TuneIn != res.Metrics.TuneIn-2*ppo {
			t.Fatalf("skip retrieval: tune-in %d, want %d",
				res2.Metrics.TuneIn, res.Metrics.TuneIn-2*ppo)
		}
		if res2.Metrics.AccessTime > res.Metrics.AccessTime {
			t.Fatalf("skip retrieval increased access time")
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ptsS := uniformPts(rng, 300, testRegion)
	ptsR := clusteredPts(rng, 300, 4, testRegion)
	te := makeEnv(t, ptsS, ptsR, testRegion, 77, 991)
	p := geom.Pt(400, 600)
	for _, algo := range []Algo{AlgoDouble, AlgoWindow, AlgoHybrid, AlgoApprox} {
		a := run(te.env, algo, p, Options{Issue: 5})
		b := run(te.env, algo, p, Options{Issue: 5})
		if a.Metrics != b.Metrics || a.Pair.Dist != b.Pair.Dist || a.Radius != b.Radius {
			t.Fatalf("nondeterministic result: %+v vs %+v", a, b)
		}
	}
}

// Hybrid-NN case selection: a much smaller R finishes first → Case 3; a
// much smaller S finishes first → Case 2.
func TestHybridCaseSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	big := uniformPts(rng, 2000, testRegion)
	small := uniformPts(rng, 60, testRegion)

	case2, case3 := 0, 0
	for j := 0; j < 30; j++ {
		offS, offR := rng.Int63n(30000), rng.Int63n(30000)
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)

		teBigS := makeEnv(t, big, small, testRegion, offS, offR)
		r1 := run(teBigS.env, AlgoHybrid, p, Options{})
		if r1.Case == Case3 {
			case3++
		}

		teSmallS := makeEnv(t, small, big, testRegion, offS, offR)
		r2 := run(teSmallS.env, AlgoHybrid, p, Options{})
		if r2.Case == Case2 {
			case2++
		}
	}
	if case3 < 25 {
		t.Errorf("big S / small R: Case3 only %d/30", case3)
	}
	if case2 < 25 {
		t.Errorf("small S / big R: Case2 only %d/30", case2)
	}
}

func TestEmptyDatasets(t *testing.T) {
	te := makeEnv(t, nil, []geom.Point{geom.Pt(1, 1)}, testRegion, 0, 0)
	for _, algo := range []Algo{AlgoDouble, AlgoWindow, AlgoHybrid, AlgoApprox} {
		res := run(te.env, algo, geom.Pt(0, 0), Options{})
		if res.Found {
			t.Fatal("found a pair with empty S")
		}
	}
}

func TestDensityAwareANN(t *testing.T) {
	cfg := DensityAwareANN(100, 100, 1)
	if cfg.FactorS != 1 || cfg.FactorR != 1 {
		t.Errorf("equal sizes: %+v", cfg)
	}
	cfg = DensityAwareANN(1000, 100, 1)
	if cfg.FactorS != 1 || cfg.FactorR != 0 {
		t.Errorf("dense S: %+v", cfg)
	}
	cfg = DensityAwareANN(100, 1000, 1)
	if cfg.FactorS != 0 || cfg.FactorR != 1 {
		t.Errorf("dense R: %+v", cfg)
	}
}
