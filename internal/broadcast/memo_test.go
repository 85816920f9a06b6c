package broadcast

import (
	"math/rand"
	"runtime"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/rtree"
)

// TestMemoFeedEquivalence drives random arrival and page queries — with
// the repeat-heavy access pattern of a session worker's clients — through
// a MemoFeed and its underlying feed, across every index family and both
// Feed implementations (dedicated channel, multiplexed segment), and
// requires identical answers. The wrapper must never change a result.
func TestMemoFeedEquivalence(t *testing.T) {
	p := DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	tree := rtree.Build(dataset.Uniform(41, 700, dataset.PaperRegion), cfg)
	treeB := rtree.Build(dataset.Uniform(42, 500, dataset.PaperRegion), cfg)

	weights := make([]float64, tree.Count)
	rngW := rand.New(rand.NewSource(5))
	for i := range weights {
		weights[i] = rngW.Float64()
	}

	indexes := map[string]AirIndex{
		"preorder":    BuildIndex(tree, p, IndexSpec{}),
		"distributed": BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed}),
		"skewed": BuildIndex(tree, p, IndexSpec{
			Sched: SkewedScheduler{Disks: 3, Ratio: 2}, Weights: weights}),
		"distributed+skewed": BuildIndex(tree, p, IndexSpec{
			Scheme: SchemeDistributed, Sched: SkewedScheduler{Disks: 2, Ratio: 2},
			Weights: weights}),
	}

	check := func(t *testing.T, name string, feed Feed) {
		t.Helper()
		memo := NewMemoFeed(feed)
		idx := feed.Index()
		nodes := idx.NumIndexPages()
		objs := idx.Tree().Count
		cycle := idx.CycleLen()
		rng := rand.New(rand.NewSource(int64(len(name)) * 977))

		var lastNode int
		var lastAfter int64
		for i := 0; i < 4000; i++ {
			after := rng.Int63n(4 * cycle)
			node := rng.Intn(nodes)
			if i%3 == 0 && i > 0 {
				// Repeat and near-repeat queries, as fanned-out clients
				// make them.
				node = lastNode
				after = lastAfter + rng.Int63n(3)
			}
			lastNode, lastAfter = node, after
			if got, want := memo.NextNodeArrival(node, after), feed.NextNodeArrival(node, after); got != want {
				t.Fatalf("%s: NextNodeArrival(%d, %d) = %d, want %d", name, node, after, got, want)
			}
			if got, want := memo.NextRootArrival(after), feed.NextRootArrival(after); got != want {
				t.Fatalf("%s: NextRootArrival(%d) = %d, want %d", name, after, got, want)
			}
			obj := rng.Intn(objs)
			if got, want := memo.NextObjectArrival(obj, after), feed.NextObjectArrival(obj, after); got != want {
				t.Fatalf("%s: NextObjectArrival(%d, %d) = %d, want %d", name, obj, after, got, want)
			}
			slot := memo.NextNodeArrival(node, after)
			if got, want := memo.PageAt(slot), feed.PageAt(slot); got != want {
				t.Fatalf("%s: PageAt(%d) = %+v, want %+v", name, slot, got, want)
			}
			gotN, _ := memo.ReadNode(slot)
			wantN, _ := feed.ReadNode(slot)
			if gotN != wantN {
				t.Fatalf("%s: ReadNode(%d) diverges", name, slot)
			}
		}
		if memo.Index() != feed.Index() {
			t.Fatalf("%s: Index() diverges", name)
		}
	}

	for name, idx := range indexes {
		t.Run(name, func(t *testing.T) {
			check(t, name, NewChannel(idx, 12345))
		})
	}
	t.Run("dualchannel", func(t *testing.T) {
		s, r := Multiplex(indexes["preorder"], BuildIndex(treeB, p, IndexSpec{}), 77)
		check(t, "dualS", s)
		check(t, "dualR", r)
	})
}

// TestMemoFeedFaultTransparency is the regression test for the memo/fault
// interaction: a MemoFeed evaluates faults through its own mark and reads
// past the FaultFeed, so it MUST evaluate the fault state fresh on every
// read. A faulted read must never stick (the same page at a later slot is
// an independent reception that may succeed), and a clean read must never
// mask a fault at another occurrence of the same page.
func TestMemoFeedFaultTransparency(t *testing.T) {
	p := DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	tree := rtree.Build(dataset.Uniform(43, 400, dataset.PaperRegion), cfg)
	ch := NewChannel(BuildIndex(tree, p, IndexSpec{}), 0)
	ff := NewFaultFeed(ch, FaultModel{Loss: 0.2, Seed: 11})
	memo := NewMemoFeed(ff)

	cycle := ch.Index().CycleLen()
	var faulted, recovered, masked int
	for slot := int64(0); slot < 6*cycle; slot++ {
		if ch.PageAt(slot).Kind != IndexPage {
			continue
		}
		n, pf := memo.ReadNode(slot)
		wantPF := ff.Fault(slot)
		if (pf == nil) != (wantPF == nil) {
			t.Fatalf("slot %d: memo fault %v, inner fault %v", slot, pf, wantPF)
		}
		if pf == nil {
			want, _ := ch.ReadNode(slot)
			if n != want {
				t.Fatalf("slot %d: clean read diverges from channel", slot)
			}
			recovered++
			continue
		}
		faulted++
		// The SAME page's next occurrence: a fresh reception. If the
		// fault had stuck, this read would fail too; if an earlier clean
		// read had been served for this page, the fault above would have
		// been masked (caught by the divergence check).
		nodeID := ch.PageAt(slot).NodeID
		next := ch.NextNodeArrival(nodeID, slot+1)
		for ff.Fault(next) != nil {
			next = ch.NextNodeArrival(nodeID, next+1)
		}
		got, pf2 := memo.ReadNode(next)
		if pf2 != nil {
			masked++
			t.Fatalf("slot %d: fault at %d was cached — clean retry at %d still fails: %v",
				slot, slot, next, pf2)
		}
		if want, _ := ch.ReadNode(next); got != want {
			t.Fatalf("slot %d: retry at %d served the wrong node", slot, next)
		}
	}
	if faulted == 0 || recovered == 0 {
		t.Fatalf("test did not exercise both paths: faulted=%d clean=%d (masked=%d)",
			faulted, recovered, masked)
	}

	// Fault() itself is evaluated per call: two calls at the same slot
	// agree with the inner feed, whatever the mark holds.
	for slot := int64(0); slot < 2*cycle; slot++ {
		a, b, inner := memo.Fault(slot), memo.Fault(slot), ff.Fault(slot)
		if (a == nil) != (inner == nil) || (b == nil) != (inner == nil) {
			t.Fatalf("slot %d: memo.Fault diverges from inner", slot)
		}
	}
}

// TestMemoFeedFaultFeedAgrees: a MemoFeed over a FaultFeed reports the
// bare FaultFeed's Fault and ReadNode at every slot, for lookups in the
// order queries make them (forward in small steps, with retries and jumps
// back to another client's slot) and in random order, across i.i.d.,
// bursty and corrupting models.
func TestMemoFeedFaultFeedAgrees(t *testing.T) {
	ch := buildFaultChannel(t, 400, 31)
	idx := ch.Index()
	cycle := idx.CycleLen()
	for _, m := range []FaultModel{
		{Loss: 0.2, Seed: 41},
		{Loss: 0.01, Burst: 8, Seed: 42},
		{Loss: 0.3, Burst: 150, Corrupt: 0.05, Seed: 43},
		{Loss: 0.5, Burst: 2, Corrupt: 0.2, Seed: 44},
	} {
		ff := NewFaultFeed(ch, m)
		memo := NewMemoFeed(ff)
		rng := rand.New(rand.NewSource(int64(m.Seed)))
		slot := int64(0)
		var faults int
		for i := 0; i < 200_000; i++ {
			switch r := rng.Intn(10); {
			case r < 7:
				slot += rng.Int63n(5)
			case r < 9:
				slot -= rng.Int63n(3 * geBlock)
			default:
				slot = rng.Int63n(8*cycle) - 4*cycle
			}
			got, want := memo.Fault(slot), ff.Fault(slot)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("model %+v: Fault(%d) = %v, bare FaultFeed %v", m, slot, got, want)
			}
			if got != nil {
				faults++
			}
			// ReadNode at the next index page on air.
			node := ch.NextNodeArrival(rng.Intn(idx.NumIndexPages()), slot)
			gotN, gotPF := memo.ReadNode(node)
			wantN, wantPF := ff.ReadNode(node)
			if gotN != wantN || (gotPF == nil) != (wantPF == nil) || gotPF != nil && *gotPF != *wantPF {
				t.Fatalf("model %+v: ReadNode(%d) = %v %v, bare FaultFeed %v %v", m, node, gotN, gotPF, wantN, wantPF)
			}
		}
		if faults == 0 {
			t.Errorf("model %+v: no fault exercised", m)
		}
	}
}

// memoFeedSink keeps NewMemoFeed's result on the heap in
// TestMemoFeedAllocFlat.
var memoFeedSink *MemoFeed

// TestMemoFeedAllocFlat: wrapping a feed costs the same few bytes whatever
// the dataset's size, because the wrapper keeps no per-page or per-object
// state. A session builds one per worker per channel.
func TestMemoFeedAllocFlat(t *testing.T) {
	const runs = 100
	measure := func(n int) (allocs float64, bytes uint64) {
		ch := buildFaultChannel(t, n, 0)
		wrap := func() { memoFeedSink = NewMemoFeed(ch) }
		allocs = testing.AllocsPerRun(runs, wrap)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			wrap()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := measure(100)
	largeAllocs, largeBytes := measure(15_210)
	if smallAllocs != largeAllocs || smallBytes != largeBytes {
		t.Fatalf("NewMemoFeed grows with the dataset: 100 points %v allocs %d B, 15210 points %v allocs %d B",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
	if largeBytes >= 1024 {
		t.Fatalf("NewMemoFeed allocates %d B per call, want under 1 KiB", largeBytes)
	}
}
