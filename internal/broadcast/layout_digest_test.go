package broadcast

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestAirIndexLayoutDigest pins every layout BuildIndex produces, one
// FNV-1a word per index family. Each word folds, over dataset sizes from
// empty to the paper's 15,210 points and over the automatic, an explicit
// and an over-large (1, m) factor: the cycle length, the replication, the
// page on air at every slot of the cycle, a seeded sample of node and
// object arrivals, and the whole pointer table. A change to how an index
// is stored must leave every word unchanged; update them only when the
// layout itself is meant to change.
func TestAirIndexLayoutDigest(t *testing.T) {
	want := map[string]uint64{
		"preorder":           0x3391e6790c784b5b,
		"preorder+skewed":    0x6bb4361557e0dbcd,
		"distributed/cut0":   0xb4283f53d12fd3a6,
		"distributed/cut1":   0x66d3112aada7603e,
		"distributed/cutH-1": 0x730bc20412af9101,
		"distributed+skewed": 0x451b500a624a2954,
	}
	hashes := make(map[string]hash.Hash64)
	for name := range want {
		hashes[name] = fnv.New64a()
	}
	for _, n := range []int{0, 1, 5, 60, 700, 15210} {
		base := DefaultParams()
		tree := buildTestTree(n, base)
		weights := make([]float64, n)
		rng := rand.New(rand.NewSource(int64(n) + 17))
		for i := range weights {
			weights[i] = rng.ExpFloat64()
		}
		sk := SkewedScheduler{Disks: 3, Ratio: 2}
		families := []struct {
			name string
			spec IndexSpec
		}{
			{"preorder", IndexSpec{}},
			{"preorder+skewed", IndexSpec{Sched: sk, Weights: weights}},
			{"distributed/cut0", IndexSpec{Scheme: SchemeDistributed}},
			{"distributed/cut1", IndexSpec{Scheme: SchemeDistributed, Cut: 1}},
			{"distributed/cutH-1", IndexSpec{Scheme: SchemeDistributed, Cut: tree.Height - 1}},
			{"distributed+skewed", IndexSpec{Scheme: SchemeDistributed, Sched: sk, Weights: weights}},
		}
		// Auto, explicit, and larger than the object count (clamped to
		// it). The last is left out at the largest size, where it would
		// air 15,210 index copies per cycle.
		ms := []int{0, 4}
		if n <= 700 {
			ms = append(ms, n+1)
		}
		for _, m := range ms {
			p := base
			p.M = m
			for i, fam := range families {
				foldLayout(hashes[fam.name], BuildIndex(tree, p, fam.spec), int64(n*31+m*7+i))
			}
		}
	}
	for name, w := range want {
		if got := hashes[name].Sum64(); got != w {
			t.Errorf("%s: layout digest %#016x, want %#016x", name, got, w)
		}
	}
}

// foldLayout writes one index's observable layout into h.
func foldLayout(h hash.Hash64, idx AirIndex, seed int64) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(idx.Scheme()))
	c := idx.CycleLen()
	put(c)
	put(int64(idx.Replication()))
	put(int64(idx.NumIndexPages()))
	put(int64(idx.NumDataPages()))
	put(int64(idx.PagesPerObject()))
	for s := int64(0); s < c; s++ {
		pg := idx.PageAt(s)
		put(int64(pg.Kind)<<62 | int64(pg.NodeID)<<40 | int64(pg.ObjectID)<<8 | int64(pg.Seq))
	}
	rng := rand.New(rand.NewSource(seed))
	nodes, objs := idx.NumIndexPages(), idx.Tree().Count
	for range 256 {
		rel := rng.Int63n(c)
		put(idx.NextNodeSlot(rng.Intn(nodes), rel))
		if objs > 0 {
			put(idx.NextObjectSlot(rng.Intn(objs), rel))
		}
	}
	for _, d := range idx.ChildDelays() {
		put(int64(d))
	}
}
