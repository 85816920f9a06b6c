package tnnbcast

import (
	"slices"
	"sync"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/rtree"
	"tnnbcast/internal/session"
)

// nodeImageSystems builds the airs the production paths run on: preorder,
// distributed under loss, and the dual channel.
func nodeImageSystems(t *testing.T) map[string]*System {
	t.Helper()
	s := UniformDataset(31, 400, digestRegion)
	r := UniformDataset(32, 250, digestRegion)
	systems := map[string]*System{}
	for name, opts := range map[string][]Option{
		"preorder":    nil,
		"distributed": {WithIndexScheme(DistributedIndex), WithFaults(FaultModel{Loss: 0.05, Burst: 3, Seed: 9})},
		"dual":        {WithSingleChannel()},
	} {
		sys, err := New(s, r, append(opts, WithRegion(digestRegion), WithPhases(17, 901))...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		systems[name] = sys
	}
	return systems
}

// TestNoProductionPathBuildsNodeImage runs every query entry point, every
// index build and the cycle encoder over fresh airs, and checks that none
// of them rebuilt a tree's pointer image: the production paths read only
// rtree.Flat. The oracle behind Exact is the one caller, and it builds
// each image once.
func TestNoProductionPathBuildsNodeImage(t *testing.T) {
	p := Pt(480, 530)
	specs := []broadcast.IndexSpec{
		{Scheme: broadcast.SchemePreorder},
		{Scheme: broadcast.SchemePreorder, Sched: broadcast.SkewedScheduler{Disks: 3, Ratio: 2}},
		{Scheme: broadcast.SchemeDistributed},
		{Scheme: broadcast.SchemeDistributed, Cut: 1, Sched: broadcast.SkewedScheduler{Disks: 2, Ratio: 3}},
	}
	for name, sys := range nodeImageSystems(t) {
		var reqs []Request
		for _, algo := range []Algorithm{Window, Double, Hybrid, Approximate} {
			reqs = append(reqs, Request{Point: p, Algo: algo})
		}
		for _, v := range []Variant{Unordered, RoundTrip, TopK} {
			reqs = append(reqs, Request{Point: p, Variant: v, K: 3})
		}
		for _, req := range reqs {
			if _, err := sys.Do(req); err != nil {
				t.Fatalf("%s: Do(%+v): %v", name, req, err)
			}
		}
		cur, err := sys.Start(reqs[2])
		if err != nil {
			t.Fatalf("%s: Start: %v", name, err)
		}
		for range cur.Events() {
		}
		if _, err := sys.QueryBatch(reqs, WithBatchWorkers(2)); err != nil {
			t.Fatalf("%s: QueryBatch: %v", name, err)
		}
		queries := []session.Query{
			{Point: p, Algo: core.AlgoHybrid, Opt: core.Options{Issue: 40}},
			{Point: Pt(100, 900), Algo: core.AlgoApprox, Opt: core.Options{Issue: 90}},
		}
		if _, err := session.New(sys.env, 2).RunStream(slices.Values(queries), func(int, core.Result) {}); err != nil {
			t.Fatalf("%s: RunStream: %v", name, err)
		}
		for _, tree := range sys.air.Trees {
			for _, spec := range specs {
				broadcast.BuildIndex(tree, sys.air.Indexes[0].Params(), spec)
			}
		}
		for c := range sys.air.Channels() {
			if _, err := sys.air.EncodeCycle(c); err != nil {
				t.Fatalf("%s: EncodeCycle(%d): %v", name, c, err)
			}
		}
		for i, tree := range sys.air.Trees {
			if tree.NodeImageBuilt() {
				t.Fatalf("%s: tree %d: a production path built the node image", name, i)
			}
		}

		if _, ok := sys.Exact(p); !ok {
			t.Fatalf("%s: Exact found no answer", name)
		}
		roots := make([]*rtree.Node, len(sys.air.Trees))
		for i, tree := range sys.air.Trees {
			if !tree.NodeImageBuilt() {
				t.Fatalf("%s: tree %d: Exact did not build the node image", name, i)
			}
			roots[i] = tree.Root()
		}
		sys.Exact(Pt(10, 10))
		for i, tree := range sys.air.Trees {
			if tree.Root() != roots[i] {
				t.Fatalf("%s: tree %d: a second Exact rebuilt the node image", name, i)
			}
		}
	}

	chain, err := NewChain([][]Point{
		UniformDataset(33, 120, digestRegion), UniformDataset(34, 90, digestRegion), UniformDataset(35, 60, digestRegion),
	}, WithRegion(digestRegion))
	if err != nil {
		t.Fatal(err)
	}
	if res := chain.Query(p); res.Err != nil {
		t.Fatalf("chain: %v", res.Err)
	}
	for i, tree := range chain.trees {
		if tree.NodeImageBuilt() {
			t.Fatalf("chain tree %d: the chain query built the node image", i)
		}
	}
}

// TestExactConcurrentFirstUse has eight goroutines call Exact at once on a
// fresh System, whose first use rebuilds each tree's pointer image: under
// the race detector this checks that the rebuild is safely shared, and
// every answer must match a sequential one.
func TestExactConcurrentFirstUse(t *testing.T) {
	s := UniformDataset(36, 500, digestRegion)
	r := UniformDataset(37, 300, digestRegion)
	queries := UniformDataset(38, 8, digestRegion)
	sys, err := New(s, r, WithRegion(digestRegion))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Result, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = sys.Exact(q)
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if want, _ := sys.Exact(q); got[i] != want {
			t.Fatalf("query %d: concurrent Exact %+v, sequential %+v", i, got[i], want)
		}
	}
}
