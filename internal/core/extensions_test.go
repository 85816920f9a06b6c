package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

func makeMultiEnv(t *testing.T, sets [][]geom.Point, region geom.Rect, rng *rand.Rand) (MultiEnv, []*rtree.Tree) {
	t.Helper()
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	env := MultiEnv{Region: region}
	trees := make([]*rtree.Tree, len(sets))
	for i, pts := range sets {
		trees[i] = rtree.Build(pts, cfg)
		prog := broadcast.BuildIndex(trees[i], p, broadcast.IndexSpec{})
		env.Chs = append(env.Chs, broadcast.NewChannel(prog, rng.Int63n(10000)))
	}
	return env, trees
}

func TestChainTNNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		k := 2 + trial%3 // 2, 3, 4 datasets
		sets := make([][]geom.Point, k)
		for i := range sets {
			if i%2 == 0 {
				sets[i] = uniformPts(rng, 80+rng.Intn(120), testRegion)
			} else {
				sets[i] = clusteredPts(rng, 60+rng.Intn(100), 4, testRegion)
			}
		}
		env, trees := makeMultiEnv(t, sets, testRegion, rng)
		for j := 0; j < 6; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got := RunChain(env, p, Options{})
			if !got.Found {
				t.Fatalf("k=%d: chain not found", k)
			}
			if len(got.Stops) != k {
				t.Fatalf("k=%d: %d stops", k, len(got.Stops))
			}
			_, want, ok := OracleChainTNN(p, trees)
			if !ok {
				t.Fatal("oracle failed")
			}
			if !almostEq(got.Pair.Dist, want, 1e-9) {
				t.Fatalf("k=%d: chain dist %v, oracle %v", k, got.Pair.Dist, want)
			}
			// Reported distance matches the stops.
			recomputed := geom.Dist(p, got.Stops[0].Point)
			for i := 1; i < k; i++ {
				recomputed += geom.Dist(got.Stops[i-1].Point, got.Stops[i].Point)
			}
			if !almostEq(got.Pair.Dist, recomputed, 1e-9) {
				t.Fatalf("k=%d: Dist %v but stops sum to %v", k, got.Pair.Dist, recomputed)
			}
			if got.Metrics.TuneIn <= 0 || got.Metrics.AccessTime <= 0 {
				t.Fatalf("k=%d: bad metrics %+v", k, got.Metrics)
			}
		}
	}
}

func TestChainTNNTwoEqualsTNN(t *testing.T) {
	// With k = 2 the chain query is the paper's TNN query, and the chain
	// executor runs it exactly as Double-NN does: the same estimate
	// searches stepped in the same order (channel 0 first on equal
	// slots), the same radius, the same join and retrieval. The answer,
	// every metric (the estimate/filter tune-in split too) and every
	// escalation agree bit for bit, lossless and under bursty loss.
	rng := rand.New(rand.NewSource(22))
	ptsS := uniformPts(rng, 300, testRegion)
	ptsR := uniformPts(rng, 250, testRegion)
	te := makeEnv(t, ptsS, ptsR, testRegion, 77, 991)
	fm := broadcast.FaultModel{Loss: 0.2, Burst: 4, Seed: 29}
	lossy := Env{
		ChS:    broadcast.NewFaultFeed(te.env.ChS, fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 0))),
		ChR:    broadcast.NewFaultFeed(te.env.ChR, fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 1))),
		Region: testRegion,
	}
	for _, c := range []struct {
		name string
		env  Env
		opt  Options
	}{
		{"lossless", te.env, Options{}},
		{"20%/4", lossy, Options{MaxRetries: 3}},
	} {
		chainEnv := MultiEnv{Chs: []broadcast.Feed{c.env.ChS, c.env.ChR}, Region: testRegion}
		var found, failed int
		for j := 0; j < 60; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			opt := c.opt
			opt.Issue = rng.Int63n(20000)
			if j%2 == 1 {
				opt.ANN = UniformANN(FactorWindowDouble)
			}
			opt.SkipDataRetrieval = j%3 == 2
			chain := RunChain(chainEnv, p, opt)
			double, _ := Run(c.env, AlgoDouble, p, opt)
			if chain.Metrics != double.Metrics || math.Float64bits(chain.Radius) != math.Float64bits(double.Radius) ||
				math.Float64bits(chain.Pair.Dist) != math.Float64bits(double.Pair.Dist) || chain.Found != double.Found ||
				chain.EstimateTuneIn != double.EstimateTuneIn || chain.FilterTuneIn != double.FilterTuneIn {
				t.Fatalf("%s query %d: chain k=2 %+v, Double-NN %+v", c.name, j, chain, double)
			}
			if chain.Found && (chain.Stops[0] != double.Pair.S || chain.Stops[1] != double.Pair.R) {
				t.Fatalf("%s query %d: chain stops %v, Double-NN pair %v", c.name, j, chain.Stops, double.Pair)
			}
			if !sameEscalation(chain.Err, double.Err) {
				t.Fatalf("%s query %d: chain error %v, Double-NN error %v", c.name, j, chain.Err, double.Err)
			}
			if chain.Found {
				found++
			}
			if chain.Err != nil {
				failed++
			}
			if c.opt.MaxRetries == 0 {
				want, _ := OracleTNN(p, te.treeS, te.treeR)
				if !chain.Found || !almostEq(chain.Pair.Dist, want.Dist, 1e-9) {
					t.Fatalf("chain k=2 dist %v, TNN oracle %v", chain.Pair.Dist, want.Dist)
				}
			}
		}
		if found == 0 || (c.opt.MaxRetries > 0 && failed == 0) {
			t.Fatalf("%s: %d found, %d escalated: the case proves nothing", c.name, found, failed)
		}
	}
}

// sameEscalation reports whether a chain error and a two-channel error
// are the same escalation: chain channel "ch0" is "S", "ch1" is "R".
func sameEscalation(chain, pair error) bool {
	if chain == nil || pair == nil {
		return chain == nil && pair == nil
	}
	a, b := chain.(*broadcast.ChannelError), pair.(*broadcast.ChannelError)
	tag := map[string]string{"ch0": "S", "ch1": "R"}[a.Channel]
	return tag == b.Channel && a.Attempts == b.Attempts && *a.Last == *b.Last
}

// TestEarliestTieBreak pins the step order of every parallel phase: the
// smallest slot first, the lowest channel index on equal slots, finished
// and nil walks skipped. Each walk acts at a fixed list of slots.
func TestEarliestTieBreak(t *testing.T) {
	slots := [][]int64{{5, 9}, nil, {5, 7}, {}, {4}}
	ws := make([]*airWalk, len(slots))
	var order []int
	for {
		for i, s := range slots {
			if s != nil {
				ws[i] = &airWalk{finished: len(s) == 0}
				if len(s) > 0 {
					ws[i].next = s[0]
				}
			}
		}
		i, slot := earliest(ws)
		if i < 0 {
			break
		}
		if slot != slots[i][0] {
			t.Fatalf("earliest reported slot %d for walk %d at %d", slot, i, slots[i][0])
		}
		order = append(order, i)
		slots[i] = slots[i][1:]
	}
	if want := []int{4, 0, 2, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("step order %v, want %v", order, want)
	}
}

func TestChainTNNEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	if res := RunChain(MultiEnv{}, geom.Pt(0, 0), Options{}); res.Found {
		t.Error("empty env should not find")
	}
	env, _ := makeMultiEnv(t, [][]geom.Point{nil, {geom.Pt(1, 1)}}, testRegion, rng)
	if res := RunChain(env, geom.Pt(0, 0), Options{}); res.Found {
		t.Error("empty layer should not find")
	}
}

func TestUnorderedTNN(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 6; trial++ {
		ptsS := uniformPts(rng, 200+rng.Intn(200), testRegion)
		ptsR := clusteredPts(rng, 150+rng.Intn(150), 4, testRegion)
		te := makeEnv(t, ptsS, ptsR, testRegion, rng.Int63n(9999), rng.Int63n(9999))
		for j := 0; j < 8; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got := RunVariant(te.env, Unordered, 0, p, Options{})
			sFirst := got.SFirst
			if !got.Found {
				t.Fatal("unordered not found")
			}
			sr, _ := OracleTNN(p, te.treeS, te.treeR)
			rs, _ := OracleTNN(p, te.treeR, te.treeS)
			want := math.Min(sr.Dist, rs.Dist)
			if !almostEq(got.Pair.Dist, want, 1e-9) {
				t.Fatalf("unordered dist %v, oracle %v", got.Pair.Dist, want)
			}
			if sFirst != (sr.Dist <= rs.Dist) {
				// Ties can legitimately go either way.
				if !almostEq(sr.Dist, rs.Dist, 1e-9) {
					t.Fatalf("order flag wrong: sFirst=%v, sr=%v rs=%v", sFirst, sr.Dist, rs.Dist)
				}
			}
			// Unordered can only improve on the fixed order.
			if got.Pair.Dist > sr.Dist+1e-9 {
				t.Fatalf("unordered %v worse than ordered %v", got.Pair.Dist, sr.Dist)
			}
		}
	}
}

func TestRoundTripTNNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 6; trial++ {
		ptsS := uniformPts(rng, 150+rng.Intn(150), testRegion)
		ptsR := uniformPts(rng, 150+rng.Intn(150), testRegion)
		te := makeEnv(t, ptsS, ptsR, testRegion, rng.Int63n(9999), rng.Int63n(9999))
		for j := 0; j < 6; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			got := RunVariant(te.env, RoundTrip, 0, p, Options{})
			if !got.Found {
				t.Fatal("round trip not found")
			}
			want, ok := OracleRoundTrip(p, te.treeS, te.treeR)
			if !ok {
				t.Fatal("oracle failed")
			}
			if !almostEq(got.Pair.Dist, want.Dist, 1e-9) {
				t.Fatalf("round trip %v, oracle %v", got.Pair.Dist, want.Dist)
			}
			// A round trip is at least twice the one-way TNN distance to S.
			oneWay, _ := OracleTNN(p, te.treeS, te.treeR)
			if got.Pair.Dist < oneWay.Dist-1e-9 {
				t.Fatalf("round trip %v below one-way %v", got.Pair.Dist, oneWay.Dist)
			}
		}
	}
}

func TestRoundTripSymmetryProperty(t *testing.T) {
	// The round-trip metric is invariant under swapping the roles of the
	// chosen objects' positions (p→s→r→p = p→r→s→p reversed), so the
	// distance must not depend on traversal direction of the same pair.
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		s := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		r := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		fwd := geom.Dist(p, s) + geom.Dist(s, r) + geom.Dist(r, p)
		rev := geom.Dist(p, r) + geom.Dist(r, s) + geom.Dist(s, p)
		if !almostEq(fwd, rev, 1e-12) {
			t.Fatal("tour length not direction-invariant")
		}
	}
}

func TestRouteLength(t *testing.T) {
	p := geom.Pt(0, 0)
	route := []rtree.Entry{
		{Point: geom.Pt(3, 4)},
		{Point: geom.Pt(3, 8)},
	}
	if got := routeLength(p, route); !almostEq(got, 9, 1e-12) {
		t.Errorf("routeLength = %v, want 9", got)
	}
	if got := routeLength(p, nil); got != 0 {
		t.Errorf("empty route length = %v", got)
	}
}

func TestChainJoinAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 30; trial++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		k := 2 + rng.Intn(3)
		layers := make([][]rtree.Entry, k)
		for i := range layers {
			n := 1 + rng.Intn(8)
			for j := 0; j < n; j++ {
				layers[i] = append(layers[i], rtree.Entry{
					Point: geom.Pt(rng.Float64()*100, rng.Float64()*100),
					ID:    j,
				})
			}
		}
		_, got, ok := chainJoin(p, layers, nil, math.Inf(1))
		if !ok {
			t.Fatal("chainJoin failed")
		}
		// Brute force over all combinations.
		var brute func(i int, last geom.Point, acc float64) float64
		brute = func(i int, last geom.Point, acc float64) float64 {
			if i == k {
				return acc
			}
			best := math.Inf(1)
			for _, e := range layers[i] {
				if v := brute(i+1, e.Point, acc+geom.Dist(last, e.Point)); v < best {
					best = v
				}
			}
			return best
		}
		want := brute(0, p, 0)
		if !almostEq(got, want, 1e-9) {
			t.Fatalf("chainJoin %v, brute %v", got, want)
		}
	}
}
