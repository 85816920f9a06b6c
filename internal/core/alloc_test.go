package core

import (
	"math/rand"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
)

// Steady-state allocation guards for the query hot path. With a Scratch
// the per-query cost must stay at a small constant: the candidate queues,
// seen/found buffers, receivers, and search structs are all reused, and the
// pruning heuristics (queue-min scan, circle/ellipse overlap) are
// allocation-free. A regression here means boxing or copying crept back
// into nnSearch/rangeSearch. The unordered and round-trip variants run on
// the same executor and are held to the same budget.
func TestQuerySteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ptsS := uniformPts(rng, 1500, testRegion)
	ptsR := uniformPts(rng, 1500, testRegion)
	te := makeEnv(t, ptsS, ptsR, testRegion, 7919, 104729)
	qs := uniformPts(rng, 32, testRegion)

	// The lossy path: distributed indexes behind bursty FaultFeeds, so
	// loss recovery, the fault evaluation and the join's block bounds are
	// held to the same budget.
	params := broadcast.DefaultParams()
	spec := broadcast.IndexSpec{Scheme: broadcast.SchemeDistributed}
	faults := broadcast.FaultModel{Loss: 0.01, Burst: 8, Seed: 3}
	lossy := Env{
		ChS: broadcast.NewFaultFeed(broadcast.NewChannel(broadcast.BuildIndex(te.treeS, params, spec), 7919),
			faults.WithSeed(broadcast.DeriveFaultSeed(faults.Seed, 0))),
		ChR: broadcast.NewFaultFeed(broadcast.NewChannel(broadcast.BuildIndex(te.treeR, params, spec), 104729),
			faults.WithSeed(broadcast.DeriveFaultSeed(faults.Seed, 1))),
		Region: testRegion,
	}

	// The per-query allocation budget. Zero in the common case; a small
	// slack absorbs rare buffer growth when a later query point needs a
	// deeper traversal than any before it.
	const budget = 4.0

	variant := func(v Variant) func(Env, geom.Point, Options) Result {
		return func(env Env, p geom.Point, opt Options) Result { return RunVariant(env, v, 0, p, opt) }
	}
	cases := []struct {
		name string
		run  func(Env, geom.Point, Options) Result
		ann  ANNConfig
		env  Env
	}{
		{"DoubleNN", algoFunc(AlgoDouble), ANNConfig{}, te.env},
		{"WindowBased", algoFunc(AlgoWindow), ANNConfig{}, te.env},
		{"HybridNN", algoFunc(AlgoHybrid), ANNConfig{}, te.env},
		{"ApproximateTNN", algoFunc(AlgoApprox), ANNConfig{}, te.env},
		{"DoubleNN/ANN", algoFunc(AlgoDouble), UniformANN(FactorWindowDouble), te.env},
		{"HybridNN/ANN", algoFunc(AlgoHybrid), UniformANN(FactorHybrid), te.env},
		{"DoubleNN/lossy", algoFunc(AlgoDouble), ANNConfig{}, lossy},
		{"ApproximateTNN/lossy", algoFunc(AlgoApprox), ANNConfig{}, lossy},
		{"Unordered", variant(Unordered), ANNConfig{}, te.env},
		{"RoundTrip", variant(RoundTrip), ANNConfig{}, te.env},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := NewScratch()
			opt := Options{ANN: c.ann, Scratch: sc}
			// Warm the scratch buffers over the whole query set so
			// AllocsPerRun measures the steady state, not first-touch
			// growth.
			var lost int64
			for _, q := range qs {
				lost += c.run(c.env, q, opt).Metrics.Lost
			}
			if c.env == lossy && lost == 0 {
				t.Fatalf("%s: no reception faulted over %d queries", c.name, len(qs))
			}
			i := 0
			allocs := testing.AllocsPerRun(64, func() {
				c.run(c.env, qs[i%len(qs)], opt)
				i++
			})
			if allocs > budget {
				t.Errorf("%s: %.1f allocs per steady-state query, budget %.0f",
					c.name, allocs, budget)
			}
		})
	}
}

// Without a scratch the algorithms still work (Scratch is optional), and
// the per-query footprint stays bounded — this pins the nil-scratch path.
func TestQueryNilScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	ptsS := uniformPts(rng, 400, testRegion)
	ptsR := uniformPts(rng, 400, testRegion)
	te := makeEnv(t, ptsS, ptsR, testRegion, 11, 13)
	q := geom.Pt(500, 500)

	withSc := NewScratch()
	a := run(te.env, AlgoDouble, q, Options{Scratch: withSc})
	b := run(te.env, AlgoDouble, q, Options{})
	if a.Metrics != b.Metrics || a.Pair.Dist != b.Pair.Dist || a.Found != b.Found {
		t.Fatalf("scratch changed the answer: %+v vs %+v", a, b)
	}
}
