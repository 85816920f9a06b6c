package core

// Scratch state-leak audit. A Scratch carries candidate queues, seen/found
// buffers, receivers, and search structs across queries; any field that
// survives reset un-reinitialized (stale options, radii, partially drained
// queues, leftover bounds) would make a query's answer depend on the
// queries that ran before it. The regression test below runs a deliberately
// mismatched query sequence — algorithms, ANN factors, retrieval options,
// issue slots, dataset shapes (including empty), and the extension queries
// that use more scratch slots than the core four — through ONE scratch and
// demands bit-identical Results to a fresh scratch per query.

import (
	"math/rand"
	"reflect"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
)

func TestScratchReuseMismatchedSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	big := makeEnv(t, uniformPts(rng, 1200, testRegion), clusteredPts(rng, 900, 5, testRegion),
		testRegion, 7919, 104729)
	small := makeEnv(t, uniformPts(rng, 40, testRegion), uniformPts(rng, 25, testRegion),
		testRegion, 3, 17)
	empty := makeEnv(t, nil, nil, testRegion, 0, 0)
	halfEmpty := makeEnv(t, nil, uniformPts(rng, 60, testRegion), testRegion, 5, 9)
	// A 3-channel chain environment reuses the broadcasts above; a chain
	// query consumes three receiver/search slots, more than the core four leave
	// behind.
	chainEnv := MultiEnv{
		Chs:    []broadcast.Feed{big.env.ChS, big.env.ChR, small.env.ChS},
		Region: testRegion,
	}

	type step struct {
		name string
		run  func(opt Options) any
	}
	qp := func() geom.Point { return geom.Pt(rng.Float64()*1000, rng.Float64()*1000) }

	// Each step captures its own query point and options so the same step
	// can be replayed against a fresh scratch.
	var steps []step
	add := func(name string, fn func(opt Options) any) {
		steps = append(steps, step{name: name, run: fn})
	}
	mk := func(env Env, algo Algo, p geom.Point) func(Options) any {
		return func(opt Options) any { return run(env, algo, p, opt) }
	}

	// A sequence chosen to leave maximally mismatched residue between
	// steps: a big ANN hybrid (transitive mode, ellipse frame, deep
	// queues) into a tiny exact window; an approximate query (no estimate
	// phase, range-only) into a failing empty-env query (no filter phase
	// at all, queues untouched); retrieval-skipping into retrieval-heavy;
	// extension queries that consume extra scratch slots into core ones.
	add("hybrid-ann-big", mk(big.env, AlgoHybrid, qp()))
	add("window-exact-small", mk(small.env, AlgoWindow, qp()))
	add("approx-big", mk(big.env, AlgoApprox, qp()))
	add("double-empty", mk(empty.env, AlgoDouble, qp()))
	add("hybrid-half-empty", mk(halfEmpty.env, AlgoHybrid, qp()))
	add("double-ann-big", mk(big.env, AlgoDouble, qp()))
	add("window-half-empty", mk(halfEmpty.env, AlgoWindow, qp()))
	p1 := qp()
	add("topk-big", func(opt Options) any { return RunVariant(big.env, TopK, 7, p1, opt) })
	add("double-small", mk(small.env, AlgoDouble, qp()))
	p2 := qp()
	add("roundtrip-big", func(opt Options) any { return RunVariant(big.env, RoundTrip, 0, p2, opt) })
	add("hybrid-small", mk(small.env, AlgoHybrid, qp()))
	p3 := qp()
	add("unordered-small", func(opt Options) any { return RunVariant(small.env, Unordered, 0, p3, opt) })
	add("approx-empty", mk(empty.env, AlgoApprox, qp()))
	p4 := qp()
	add("chain-3", func(opt Options) any { return RunChain(chainEnv, p4, opt) })
	add("window-big", mk(big.env, AlgoWindow, qp()))

	// Per-step options, drawn once so both runs see identical queries.
	opts := make([]Options, len(steps))
	for i := range opts {
		switch i % 3 {
		case 0:
			opts[i].ANN = UniformANN(FactorWindowDouble)
		case 1:
			opts[i].ANN = ANNConfig{FactorS: 0, FactorR: FactorHybrid}
		}
		opts[i].Issue = rng.Int63n(4000)
		opts[i].SkipDataRetrieval = i%4 == 1
	}

	// Reference: a fresh scratch for every step.
	want := make([]any, len(steps))
	for i, s := range steps {
		o := opts[i]
		o.Scratch = NewScratch()
		want[i] = s.run(o)
	}

	// Audit run: one scratch across the whole mismatched sequence.
	shared := NewScratch()
	for i, s := range steps {
		o := opts[i]
		o.Scratch = shared
		got := s.run(o)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("step %d (%s): result differs after scratch reuse\n got: %+v\nwant: %+v",
				i, s.name, got, want[i])
		}
	}

	// And the whole sequence again through the same scratch, in reverse,
	// so every step also sees the residue of its successors.
	for i := len(steps) - 1; i >= 0; i-- {
		o := opts[i]
		o.Scratch = shared
		if got := steps[i].run(o); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("reverse step %d (%s): result differs after scratch reuse", i, steps[i].name)
		}
	}
}
