package broadcast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// commonDelay is the pointer table's reference definition: the delay from
// each of the parent's ascending slots to the child's next slot after it,
// when that delay is the same for all of them and each lies within the
// cycle; else 0.
func commonDelay(parent, child []int64) int32 {
	var want int64
	j := 0
	for _, s := range parent {
		for j < len(child) && child[j] <= s {
			j++
		}
		if j == len(child) {
			return 0 // the child's next broadcast is in the next cycle
		}
		if d := child[j] - s; want == 0 {
			want = d
		} else if d != want {
			return 0
		}
	}
	if want > math.MaxInt32 {
		return 0
	}
	return int32(want)
}

// checkDelaysAgainstReference compares every entry of idx's pointer table,
// zero entries included, with commonDelay over the nodes' slots as a scan
// of one cycle finds them.
func checkDelaysAgainstReference(t *testing.T, idx AirIndex) {
	t.Helper()
	slots := make([][]int64, idx.NumIndexPages())
	for s := int64(0); s < idx.CycleLen(); s++ {
		if pg := idx.PageAt(s); pg.Kind == IndexPage {
			slots[pg.NodeID] = append(slots[pg.NodeID], s)
		}
	}
	fl := idx.Tree().Flat()
	delays := idx.ChildDelays()
	for p := range fl.EntFirst {
		first, end := fl.EntRange(int32(p))
		for e := first; e < end; e++ {
			if want := commonDelay(slots[p], slots[fl.Key[e]]); delays[e] != want {
				t.Fatalf("node %d, child %d: table holds %d, reference %d", p, fl.Key[e], delays[e], want)
			}
		}
	}
}

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
		{"preorder", BuildIndex(tree, p, IndexSpec{}), true},
		{"preorder+skewed", BuildIndex(tree, p, IndexSpec{Sched: sk, Weights: weights}), true},
		{"distributed", BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed}), false},
		{"distributed/cut1", BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed, Cut: 1}), false},
		{"distributed+skewed", BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed, Sched: sk, Weights: weights}), false},
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
			checkDelaysAgainstReference(t, tc.idx)

			c := tc.idx.CycleLen()
			all := func(int64) bool { return true }
			for _, off := range []int64{0, 1, 37, c - 1, -12345} {
				ch := NewChannel(tc.idx, off)
				if checkChildDelays(t, tc.name, ch, 5*c+3, c, all) == 0 {
					t.Fatalf("offset %d: no table entry checked", off)
				}
			}
			for i, pair := range [][2]AirIndex{
				{tc.idx, BuildIndex(other, p, IndexSpec{})},
				{BuildIndex(other, p, IndexSpec{Scheme: SchemeDistributed}), tc.idx},
			} {
				s, r := Multiplex(pair[0], pair[1], 777)
				feed := []*Channel{s, r}[i]
				owns := func(slot int64) bool { pos := feed.rel(slot); return pos >= 0 && pos < feed.length }
				if checkChildDelays(t, tc.name, feed, 3*feed.period, feed.period, owns) == 0 {
					t.Fatalf("dual half %d: no table entry checked", i)
				}
			}
		})
	}
}

// TestLayoutsAcrossPackings builds every index family over every packing
// and checks what the node ranges give: the pointer table against its
// reference, and the node and object arrivals against a scan.
func TestLayoutsAcrossPackings(t *testing.T) {
	p := DefaultParams()
	sk := SkewedScheduler{Disks: 3, Ratio: 2}
	for _, pk := range []rtree.Packing{rtree.STR, rtree.HilbertSort, rtree.NearestX} {
		for _, n := range []int{1, 60, 250} {
			rng := rand.New(rand.NewSource(int64(n)))
			pts := make([]geom.Point, n)
			weights := make([]float64, n)
			for i := range pts {
				pts[i] = geom.Pt(float64(rng.Intn(40))*25, float64(rng.Intn(40))*25)
				weights[i] = rng.ExpFloat64()
			}
			tree := rtree.Build(pts, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap(), Packing: pk})
			for _, spec := range []IndexSpec{
				{},
				{Sched: sk, Weights: weights},
				{Scheme: SchemeDistributed},
				{Scheme: SchemeDistributed, Cut: 1},
				{Scheme: SchemeDistributed, Cut: tree.Height - 1},
				{Scheme: SchemeDistributed, Sched: sk, Weights: weights},
			} {
				idx := BuildIndex(tree, p, spec)
				t.Run(fmt.Sprintf("%v/%d/%s/cut%d", pk, n, idx.Scheme(), spec.Cut), func(t *testing.T) {
					checkDelaysAgainstReference(t, idx)
					checkArrivalContract(t, idx, int64(n))
				})
			}
		}
	}
}
