package broadcast

import (
	"math/rand"
	"testing"
)

// checkChildDelays walks one full cycle of feed f (slots [from, from+n)),
// skipping the slots owns rejects, and at every broadcast of every
// internal node checks each non-zero pointer-table entry against the
// feed's own answer: the child's next arrival after the parent's slot t
// is t + delay.
func checkChildDelays(t *testing.T, name string, f Feed, from, n int64, owns func(int64) bool) (checked int) {
	t.Helper()
	idx := f.Index()
	fl := idx.Tree().Flat()
	delays := idx.ChildDelays()
	if len(delays) != len(fl.Key) {
		t.Fatalf("%s: %d table entries for %d child entries", name, len(delays), len(fl.Key))
	}
	for s := from; s < from+n; s++ {
		if !owns(s) {
			continue
		}
		pg := f.PageAt(s)
		if pg.Kind != IndexPage {
			continue
		}
		first, end := fl.EntRange(int32(pg.NodeID))
		for e := first; e < end; e++ {
			d := delays[e]
			if d == 0 {
				continue
			}
			if got := f.NextNodeArrival(int(fl.Key[e]), s+1); got != s+int64(d) {
				t.Fatalf("%s: node %d at slot %d, child %d: table says %d, feed says %d",
					name, pg.NodeID, s, fl.Key[e], s+int64(d), got)
			}
			checked++
		}
	}
	return checked
}

func TestChildDelays(t *testing.T) {
	p := DefaultParams()
	tree := buildTestTree(400, p)
	other := buildTestTree(90, p)
	if tree.Height < 3 {
		t.Fatalf("tree height %d: too shallow to replicate upper levels", tree.Height)
	}
	weights := make([]float64, tree.Count)
	rng := rand.New(rand.NewSource(5))
	for i := range weights {
		weights[i] = rng.Float64() * rng.Float64()
	}
	sk := SkewedScheduler{Disks: 3, Ratio: 2}
	cases := []struct {
		name     string
		idx      AirIndex
		preorder bool // every index run airs all nodes in preorder
	}{
		{"preorder", BuildProgram(tree, p), true},
		{"preorder+skewed", BuildScheduled(tree, p, sk, weights), true},
		{"distributed", BuildDistributed(tree, p, 0, FlatScheduler{}, nil), false},
		{"distributed/cut1", BuildDistributed(tree, p, 1, FlatScheduler{}, nil), false},
		{"distributed+skewed", BuildDistributed(tree, p, 0, sk, weights), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			zeros := 0
			for _, d := range tc.idx.ChildDelays() {
				if d < 0 {
					t.Fatalf("negative delay %d", d)
				}
				if d == 0 {
					zeros++
				}
			}
			switch {
			case tc.preorder && zeros > 0:
				t.Fatalf("%d zero entries in a preorder table", zeros)
			case !tc.preorder && zeros == 0:
				t.Fatalf("no zero entry: the replicated upper levels' children should have several delays")
			}

			c := tc.idx.CycleLen()
			all := func(int64) bool { return true }
			for _, off := range []int64{0, 1, 37, c - 1, -12345} {
				ch := NewChannel(tc.idx, off)
				if checkChildDelays(t, tc.name, ch, 5*c+3, c, all) == 0 {
					t.Fatalf("offset %d: no table entry checked", off)
				}
			}
			for i, pair := range [][2]AirIndex{
				{tc.idx, BuildProgram(other, p)},
				{BuildDistributed(other, p, 0, FlatScheduler{}, nil), tc.idx},
			} {
				dual := NewDualChannel(pair[0], pair[1], 777)
				feed := dual.FeedS()
				if i == 1 {
					feed = dual.FeedR()
				}
				owns := func(s int64) bool { _, half := dual.pageAt(s); return half == i }
				if checkChildDelays(t, tc.name, feed, 3*dual.CycleLen(), dual.CycleLen(), owns) == 0 {
					t.Fatalf("dual half %d: no table entry checked", i)
				}
			}
		})
	}
}
