package broadcast

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
)

// TestChannelArrivalDigest pins what a receiver sees of a channel, one
// FNV-1a word per case. A case is an index family, a dataset's feed (a
// dedicated channel, or either share of one multiplexed channel) and a
// phase offset (0, 11, -5 and P+3, where P is the physical channel's
// period). Each word folds, over sampled slots from -2P to 3P and every
// slot next to a cycle or share boundary: the page on air when the slot
// is the feed's, and the feed's root, node and object arrivals after it.
// A change to how a channel schedules its program must leave every word
// unchanged.
func TestChannelArrivalDigest(t *testing.T) {
	want := map[string]uint64{
		"preorder/dedicated/0":             0x95a6fc4195927dfd,
		"preorder/dedicated/11":            0xa6de059c02aa7378,
		"preorder/dedicated/-5":            0xe00331a2feb84200,
		"preorder/dedicated/P+3":           0x0011d3e8868ffe1a,
		"preorder/shareS/0":                0xf2dde5f4302e2c7f,
		"preorder/shareS/11":               0xd708c9177cf4e7be,
		"preorder/shareS/-5":               0xfd694afc82271705,
		"preorder/shareS/P+3":              0x246dcd167916f19f,
		"preorder/shareR/0":                0x4c366b1c38033758,
		"preorder/shareR/11":               0x2dd8436d47c6e130,
		"preorder/shareR/-5":               0xe05b1940f2df8aab,
		"preorder/shareR/P+3":              0x26d61ed6f4464a70,
		"preorder+skewed/dedicated/0":      0xff3c8ab8c430d08f,
		"preorder+skewed/dedicated/11":     0xa88a2b84501a3818,
		"preorder+skewed/dedicated/-5":     0x80912153748ff3ca,
		"preorder+skewed/dedicated/P+3":    0xea38c8ebbd56c1d5,
		"preorder+skewed/shareS/0":         0x51418fddaa8bcc47,
		"preorder+skewed/shareS/11":        0x419cc5c9307a1f4c,
		"preorder+skewed/shareS/-5":        0x2bc3c70f1172ae5b,
		"preorder+skewed/shareS/P+3":       0x7daf70791d309905,
		"preorder+skewed/shareR/0":         0x36c741a93264d3bf,
		"preorder+skewed/shareR/11":        0x44a115f62fa3dbe4,
		"preorder+skewed/shareR/-5":        0xd4cd2c14eed56d6d,
		"preorder+skewed/shareR/P+3":       0x9d3bbd9bb62c46bf,
		"distributed/dedicated/0":          0x8a6f8346fa2e26c7,
		"distributed/dedicated/11":         0xc31cf1b024ba01a8,
		"distributed/dedicated/-5":         0x21997fec28b31b2a,
		"distributed/dedicated/P+3":        0x6a3c6bce110f8298,
		"distributed/shareS/0":             0xf4bb3410ae7dedfd,
		"distributed/shareS/11":            0xdbe3a1d220f25c51,
		"distributed/shareS/-5":            0xade986ab4b12dbcd,
		"distributed/shareS/P+3":           0x9507d4f8993659db,
		"distributed/shareR/0":             0xf13bbdce5e24e087,
		"distributed/shareR/11":            0x4f09637b7710c34c,
		"distributed/shareR/-5":            0xfedcb7c22272a147,
		"distributed/shareR/P+3":           0xdde5267f7ae65371,
		"distributed+skewed/dedicated/0":   0xe08ec8c73f7cd83b,
		"distributed+skewed/dedicated/11":  0x0331d8a79850a4cc,
		"distributed+skewed/dedicated/-5":  0xee3de19b7e368d0e,
		"distributed+skewed/dedicated/P+3": 0x0acf7a891c36dcd6,
		"distributed+skewed/shareS/0":      0x1eea1119337ba4fd,
		"distributed+skewed/shareS/11":     0x53b0616ecdb654dd,
		"distributed+skewed/shareS/-5":     0x4694d5ac7d894380,
		"distributed+skewed/shareS/P+3":    0xef0001cd7558fdf4,
		"distributed+skewed/shareR/0":      0xcb57f9118153134d,
		"distributed+skewed/shareR/11":     0x03e38be72c9e6ba8,
		"distributed+skewed/shareR/-5":     0xc40637dc97b7cabb,
		"distributed+skewed/shareR/P+3":    0xedf8ed5f23227e36,
	}
	sets := [][]geom.Point{
		dataset.Uniform(3, 300, dataset.PaperRegion),
		dataset.Uniform(4, 170, dataset.PaperRegion),
	}
	var weights [2][]float64
	for i, set := range sets {
		rng := rand.New(rand.NewSource(int64(i) + 5))
		for range set {
			weights[i] = append(weights[i], rng.ExpFloat64())
		}
	}
	families := []struct {
		name   string
		scheme SchemeID
		skew   int
	}{
		{"preorder", SchemePreorder, 0},
		{"preorder+skewed", SchemePreorder, 3},
		{"distributed", SchemeDistributed, 0},
		{"distributed+skewed", SchemeDistributed, 3},
	}
	got := map[string]uint64{}
	for _, fam := range families {
		for _, single := range []bool{false, true} {
			spec := AirSpec{
				Params:    DefaultParams(),
				Scheme:    fam.scheme,
				SkewDisks: fam.skew,
				SkewRatio: 2,
				Weights:   weights,
				Single:    single,
			}
			air := mustAir(t, sets, spec)
			period := air.CycleLen(0)
			for _, off := range []struct {
				name string
				at   int64
			}{{"0", 0}, {"11", 11}, {"-5", -5}, {"P+3", period + 3}} {
				air.Rephase([2]int64{off.at, off.at})
				for d, f := range air.Feeds {
					feed := "dedicated"
					if single {
						feed = []string{"shareS", "shareR"}[d]
					} else if d > 0 {
						continue
					}
					name := fmt.Sprintf("%s/%s/%s", fam.name, feed, off.name)
					h := fnv.New64a()
					foldArrivals(h, air, d, f, int64(len(got)))
					got[name] = h.Sum64()
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: arrival digest %#016x, want %#016x", name, g, w)
		}
	}
}

// foldArrivals writes dataset d's view of the air through feed f into h:
// over sampled slots in [-2P, 3P) of its physical channel and the slots
// next to every cycle and share boundary there, the page on air when the
// slot is d's and the root, node and object arrivals after the slot.
func foldArrivals(h hash.Hash64, air *Air, d int, f Feed, seed int64) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	c := air.ChannelOf(d)
	period, phase := air.CycleLen(c), air.Phase(c)
	rng := rand.New(rand.NewSource(seed))
	var afters []int64
	for range 600 {
		afters = append(afters, -2*period+rng.Int63n(5*period))
	}
	// The cycle starts, and under a multiplexed channel the second share's.
	edges := []int64{0}
	if air.Channels() == 1 {
		edges = append(edges, air.Indexes[0].CycleLen())
	}
	for k := int64(-2); k <= 3; k++ {
		for _, e := range edges {
			for dt := int64(-1); dt <= 1; dt++ {
				afters = append(afters, phase+k*period+e+dt)
			}
		}
	}
	nodes, objs := f.Index().NumIndexPages(), f.Index().Tree().Count
	for _, after := range afters {
		put(after)
		if _, owner := air.PageOn(c, after); owner == d {
			pg := f.PageAt(after)
			put(int64(pg.Kind)<<62 | int64(pg.NodeID)<<40 | int64(pg.ObjectID)<<8 | int64(pg.Seq))
		}
		put(f.NextRootArrival(after))
		put(f.NextNodeArrival(rng.Intn(nodes), after))
		put(f.NextObjectArrival(rng.Intn(objs), after))
	}
}
