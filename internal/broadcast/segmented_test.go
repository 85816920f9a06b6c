package broadcast

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

func buildTestTree(n int, params Params) *rtree.Tree {
	rng := rand.New(rand.NewSource(int64(n)))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return rtree.Build(pts, rtree.Config{
		LeafCap: params.LeafCap(), NodeCap: params.NodeCap(),
	})
}

// nextOccByScan is the brute-force AirIndex arrival oracle: scan forward
// from rel until match airs.
func nextOccByScan(idx AirIndex, rel int64, match func(Page) bool) int64 {
	c := idx.CycleLen()
	for d := int64(0); d < 2*c; d++ {
		if match(idx.PageAt((rel + d) % c)) {
			return rel + d
		}
	}
	return -1
}

// checkArrivalContract verifies NextNodeSlot/NextObjectSlot against the
// brute-force scan for a sample of positions.
func checkArrivalContract(t *testing.T, idx AirIndex, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := idx.CycleLen()
	tree := idx.Tree()
	for trial := 0; trial < 200; trial++ {
		rel := rng.Int63n(c)
		id := rng.Intn(tree.NumNodes())
		got := idx.NextNodeSlot(id, rel)
		if got < rel || got >= rel+c {
			t.Fatalf("NextNodeSlot(%d, %d) = %d outside [rel, rel+cycle)", id, rel, got)
		}
		want := nextOccByScan(idx, rel, func(p Page) bool {
			return p.Kind == IndexPage && p.NodeID == id
		})
		if got != want {
			t.Fatalf("NextNodeSlot(%d, %d) = %d, scan says %d", id, rel, got, want)
		}
		if tree.Count > 0 {
			obj := rng.Intn(tree.Count)
			got := idx.NextObjectSlot(obj, rel)
			want := nextOccByScan(idx, rel, func(p Page) bool {
				return p.Kind == DataPage && p.ObjectID == obj && p.Seq == 0
			})
			if got != want {
				t.Fatalf("NextObjectSlot(%d, %d) = %d, scan says %d", obj, rel, got, want)
			}
		}
	}
}

// buildTestProgram builds the paper's preorder (1, m) program over n
// uniform points.
func buildTestProgram(t *testing.T, n int, params Params) *SegmentedIndex {
	t.Helper()
	return BuildIndex(buildTestTree(n, params), params, IndexSpec{})
}

func TestProgramCycleStructure(t *testing.T) {
	for _, n := range []int{1, 5, 37, 200} {
		p := DefaultParams()
		prog := buildTestProgram(t, n, p)

		if prog.NumDataPages() != n*p.PagesPerObject() {
			t.Fatalf("n=%d: data pages %d, want %d", n, prog.NumDataPages(), n*p.PagesPerObject())
		}
		wantCycle := int64(prog.Replication()*prog.NumIndexPages() + prog.NumDataPages())
		if prog.CycleLen() != wantCycle {
			t.Fatalf("n=%d: cycle %d, want %d", n, prog.CycleLen(), wantCycle)
		}

		// Scan the entire cycle: every index page appears exactly M times,
		// every object exactly once with consecutive, complete fragments.
		nodeCount := make(map[int]int)
		objStart := make(map[int]int64)
		objFrags := make(map[int][]int)
		for s := int64(0); s < prog.CycleLen(); s++ {
			pg := prog.PageAt(s)
			switch pg.Kind {
			case IndexPage:
				nodeCount[pg.NodeID]++
			case DataPage:
				if pg.Seq == 0 {
					objStart[pg.ObjectID] = s
				}
				objFrags[pg.ObjectID] = append(objFrags[pg.ObjectID], pg.Seq)
			}
		}
		for id := 0; id < prog.NumIndexPages(); id++ {
			if nodeCount[id] != prog.Replication() {
				t.Fatalf("n=%d: node %d appears %d times, want %d", n, id, nodeCount[id], prog.Replication())
			}
		}
		if len(objFrags) != n {
			t.Fatalf("n=%d: %d objects on air", n, len(objFrags))
		}
		for id, frags := range objFrags {
			if len(frags) != p.PagesPerObject() {
				t.Fatalf("n=%d: object %d has %d fragments", n, id, len(frags))
			}
			for i, seq := range frags {
				if seq != i {
					t.Fatalf("n=%d: object %d fragments out of order", n, id)
				}
			}
			// Fragments consecutive from the start slot.
			if prog.PageAt(objStart[id]+int64(p.PagesPerObject())-1).ObjectID != id {
				t.Fatalf("n=%d: object %d run not consecutive", n, id)
			}
		}
	}
}

func TestProgramExplicitM(t *testing.T) {
	p := DefaultParams()
	p.M = 4
	prog := buildTestProgram(t, 100, p)
	if prog.Replication() != 4 {
		t.Fatalf("M = %d, want 4", prog.Replication())
	}
	// Fractions balanced: sizes differ by at most one object.
	min, max := 1<<30, 0
	for f := 0; f < 4; f++ {
		sz := len(prog.segData[f])
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced fractions: min %d max %d", min, max)
	}
}

func TestProgramAutoM(t *testing.T) {
	p := DefaultParams() // M=0 → auto
	prog := buildTestProgram(t, 500, p)
	if prog.Replication() < 1 {
		t.Fatalf("auto M = %d", prog.Replication())
	}
	// With 16 data pages per object and ~3-fanout index, data outnumbers
	// index pages, so the optimal m should exceed 1.
	if prog.Replication() == 1 {
		t.Errorf("auto M stayed 1 for data-heavy program (index=%d data=%d)",
			prog.NumIndexPages(), prog.NumDataPages())
	}
	// M never exceeds the object count.
	small := buildTestProgram(t, 2, p)
	if small.Replication() > 2 {
		t.Errorf("M %d > object count 2", small.Replication())
	}
}

func TestProgramPageAtPanics(t *testing.T) {
	prog := buildTestProgram(t, 10, DefaultParams())
	for _, s := range []int64{-1, prog.CycleLen()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PageAt(%d) should panic", s)
				}
			}()
			prog.PageAt(s)
		}()
	}
}

func TestBuildProgramRejectsOversizedTree(t *testing.T) {
	p := DefaultParams()
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2)}
	tree := rtree.Build(pts, rtree.Config{LeafCap: 100, NodeCap: 50})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for tree exceeding page capacity")
		}
	}()
	BuildIndex(tree, p, IndexSpec{})
}

// TestBuildRejectsCycleOverInt32 builds the largest cycle a slot stored
// as an int32 can address, 2³¹-1 slots (one object whose pages fill all
// but the root's slot), and requires a panic one slot beyond it.
func TestBuildRejectsCycleOverInt32(t *testing.T) {
	p := DefaultParams()
	tree := rtree.Build([]geom.Point{geom.Pt(0, 0)}, rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()})
	p.DataSize = p.PageCap * (math.MaxInt32 - 1)
	idx := BuildIndex(tree, p, IndexSpec{})
	if c := idx.CycleLen(); c != math.MaxInt32 {
		t.Fatalf("cycle %d, want %d", c, math.MaxInt32)
	}
	last := Page{Kind: DataPage, Seq: math.MaxInt32 - 2}
	if pg := idx.PageAt(math.MaxInt32 - 1); pg != last {
		t.Fatalf("last slot carries %+v, want %+v", pg, last)
	}
	if got := idx.NextObjectSlot(0, math.MaxInt32-1); got != 1+math.MaxInt32 {
		t.Fatalf("object after the last slot at %d, want %d", got, 1+math.MaxInt32)
	}
	p.DataSize += p.PageCap
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a cycle of 2³¹ slots")
		}
	}()
	BuildIndex(tree, p, IndexSpec{})
}

func TestBuildProgramRejectsInvalidParams(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0)}
	tree := rtree.Build(pts, rtree.Config{LeafCap: 2, NodeCap: 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid params")
		}
	}()
	BuildIndex(tree, Params{}, IndexSpec{})
}

func TestPageKindString(t *testing.T) {
	if IndexPage.String() != "index" || DataPage.String() != "data" {
		t.Error("PageKind strings wrong")
	}
}

func TestProgramArrivalContract(t *testing.T) {
	p := DefaultParams()
	checkArrivalContract(t, BuildIndex(buildTestTree(120, p), p, IndexSpec{}), 7)
}

func TestDistributedStructure(t *testing.T) {
	p := DefaultParams()
	for _, n := range []int{0, 1, 5, 40, 300} {
		tree := buildTestTree(n, p)
		di := BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed})

		cut := tree.Height / 2
		if cut > tree.Height-1 {
			cut = tree.Height - 1
		}
		branches := 1
		if cut >= 1 {
			branches = len(tree.NodesAtDepth(cut))
		}
		if di.Replication() != branches {
			t.Fatalf("n=%d: replication %d, want %d branches", n, di.Replication(), branches)
		}
		if len(di.segIndex) != branches {
			t.Fatalf("n=%d: %d segments, want %d", n, len(di.segIndex), branches)
		}

		// Scan the cycle: node at depth d < cut airs once per branch below
		// it; deeper nodes air exactly once; every object airs exactly once
		// with complete consecutive fragments.
		nodeCount := make([]int, tree.NumNodes())
		objCount := make([]int, tree.Count)
		for s := int64(0); s < di.CycleLen(); s++ {
			pg := di.PageAt(s)
			if pg.Kind == IndexPage {
				nodeCount[pg.NodeID]++
			} else if pg.Seq == 0 {
				objCount[pg.ObjectID]++
			}
		}
		for id, node := range tree.Nodes() {
			want := 1
			if node.Depth < cut {
				// One occurrence per branch in the node's subtree.
				want = 0
				for _, b := range tree.NodesAtDepth(cut) {
					if b >= id && b < tree.SubtreeEnd(id) {
						want++
					}
				}
			}
			if nodeCount[id] != want {
				t.Fatalf("n=%d: node %d (depth %d) airs %d times, want %d",
					n, id, node.Depth, nodeCount[id], want)
			}
		}
		for obj, cnt := range objCount {
			if cnt != 1 {
				t.Fatalf("n=%d: object %d airs %d times", n, obj, cnt)
			}
		}

		// Index slots: the nodes below the cut air once each; the nodes
		// above it air only inside the per-branch paths (cut pages per
		// branch).
		above := 0
		for _, node := range tree.Nodes() {
			if node.Depth < cut {
				above++
			}
		}
		wantCycle := int64(tree.NumNodes()-above) + int64(tree.Count)*int64(p.PagesPerObject())
		if cut >= 1 {
			wantCycle += int64(branches * cut)
		}
		if di.CycleLen() != wantCycle {
			t.Fatalf("n=%d: cycle %d, want %d", n, di.CycleLen(), wantCycle)
		}

		if n > 0 {
			checkArrivalContract(t, di, int64(n))
		}
	}
}

func TestDistributedCutClamping(t *testing.T) {
	p := DefaultParams()
	tree := buildTestTree(100, p)
	// Absurd cut clamps to Height-1; the result still airs everything.
	di := BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed, Cut: 99})
	if di.Replication() < 1 {
		t.Fatal("clamped cut produced no entry points")
	}
	checkArrivalContract(t, di, 5)
}

func TestSkewedSchedulerSequence(t *testing.T) {
	sched := SkewedScheduler{Disks: 3, Ratio: 2}
	n := 40
	part := make([]int, n)
	weights := make([]float64, n)
	for i := range part {
		part[i] = i
		weights[i] = float64(n - i) // object 0 hottest
	}
	seq := sched.Sequence(part, weights)

	count := make([]int, n)
	for _, id := range seq {
		count[id]++
	}
	for id, c := range count {
		if c < 1 {
			t.Fatalf("object %d missing from skewed sequence", id)
		}
		if c > 4 {
			t.Fatalf("object %d airs %d times, max is ratio^(disks-1) = 4", id, c)
		}
	}
	// The hottest object must air at the top frequency, the coldest once.
	if count[0] != 4 {
		t.Errorf("hottest object airs %d times, want 4", count[0])
	}
	if count[n-1] != 1 {
		t.Errorf("coldest object airs %d times, want 1", count[n-1])
	}
	// Deterministic.
	again := sched.Sequence(part, weights)
	if len(again) != len(seq) {
		t.Fatal("nondeterministic sequence length")
	}
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatal("nondeterministic sequence")
		}
	}
	// A ratio below 2 is clamped to 2.
	for _, ratio := range []int{0, 1} {
		low := SkewedScheduler{Disks: 3, Ratio: ratio}.Sequence(part, weights)
		if !slices.Equal(low, seq) {
			t.Errorf("Ratio %d: sequence differs from Ratio 2", ratio)
		}
	}
}

func TestSkewedSchedulerMassSizing(t *testing.T) {
	// One overwhelmingly hot object: the hot disk should be tiny, so the
	// cycle stretch stays small while the hot object repeats at full rate.
	n := 100
	part := make([]int, n)
	weights := make([]float64, n)
	for i := range part {
		part[i] = i
		weights[i] = 0.001
	}
	weights[37] = 1000
	seq := SkewedScheduler{Disks: 2, Ratio: 4}.Sequence(part, weights)
	count := make(map[int]int)
	for _, id := range seq {
		count[id]++
	}
	if count[37] != 4 {
		t.Errorf("hot object airs %d times, want 4", count[37])
	}
	if len(seq) > n+3*4 {
		t.Errorf("skewed cycle has %d data entries for %d objects — hot disk not small", len(seq), n)
	}
}

// TestSkewedSchedulerExtremeConfig is the regression test for the chunk
// overflow: absurd disk counts must saturate (every object still airs, the
// hot disk repeats at most maxDiskRepetitions times) instead of wrapping
// the chunk arithmetic and emitting an empty schedule.
func TestSkewedSchedulerExtremeConfig(t *testing.T) {
	n := 100
	part := make([]int, n)
	weights := make([]float64, n)
	for i := range part {
		part[i] = i
		weights[i] = float64(n - i)
	}
	for _, cfg := range []SkewedScheduler{
		{Disks: 70, Ratio: 2},
		{Disks: 80, Ratio: 2},
		{Disks: 16, Ratio: 16},
	} {
		seq := cfg.Sequence(part, weights)
		count := make([]int, n)
		for _, id := range seq {
			count[id]++
		}
		for id, c := range count {
			if c < 1 {
				t.Fatalf("%+v: object %d missing", cfg, id)
			}
			if c > maxDiskRepetitions {
				t.Fatalf("%+v: object %d airs %d times", cfg, id, c)
			}
		}
	}
	// The overflow repro end to end: the build must not panic.
	p := DefaultParams()
	tree := buildTestTree(200, p)
	BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed, Cut: 1, Sched: SkewedScheduler{Disks: 80, Ratio: 2}})
}

func TestSkewedIndexArrivals(t *testing.T) {
	p := DefaultParams()
	tree := buildTestTree(60, p)
	weights := make([]float64, tree.Count)
	rng := rand.New(rand.NewSource(99))
	for i := range weights {
		weights[i] = rng.Float64()
	}
	sk := SkewedScheduler{Disks: 2, Ratio: 2}
	for _, idx := range []AirIndex{
		BuildIndex(tree, p, IndexSpec{Sched: sk, Weights: weights}),
		BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed, Sched: sk, Weights: weights}),
	} {
		if idx.NumDataPages() <= tree.Count*p.PagesPerObject()-1 {
			t.Fatalf("%s: no repetitions scheduled", idx.Scheme())
		}
		checkArrivalContract(t, idx, 3)
	}
	// The zero schedule is flat: it builds the default layout, weights
	// or not.
	for _, scheme := range []SchemeID{SchemePreorder, SchemeDistributed} {
		flat := BuildIndex(tree, p, IndexSpec{Scheme: scheme})
		zero := BuildIndex(tree, p, IndexSpec{Scheme: scheme, Sched: SkewedScheduler{}, Weights: weights})
		if zero.Scheme() != flat.Scheme() || zero.CycleLen() != flat.CycleLen() {
			t.Fatalf("%v: zero schedule builds %s/%d, flat %s/%d",
				scheme, zero.Scheme(), zero.CycleLen(), flat.Scheme(), flat.CycleLen())
		}
		for s := int64(0); s < flat.CycleLen(); s++ {
			if zero.PageAt(s) != flat.PageAt(s) {
				t.Fatalf("%v: slot %d carries %+v, flat %+v", scheme, s, zero.PageAt(s), flat.PageAt(s))
			}
		}
	}
}

func TestChannelOverDistributed(t *testing.T) {
	p := DefaultParams()
	tree := buildTestTree(80, p)
	di := BuildIndex(tree, p, IndexSpec{Scheme: SchemeDistributed})
	ch := NewChannel(di, 12345)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		after := rng.Int63n(3 * di.CycleLen())
		id := rng.Intn(tree.NumNodes())
		got := ch.NextNodeArrival(id, after)
		if got < after {
			t.Fatalf("arrival %d before after %d", got, after)
		}
		if pg := ch.PageAt(got); pg.Kind != IndexPage || pg.NodeID != id {
			t.Fatalf("slot %d carries %+v, want node %d", got, pg, id)
		}
		// No earlier occurrence.
		for s := after; s < got; s++ {
			if pg := ch.PageAt(s); pg.Kind == IndexPage && pg.NodeID == id {
				t.Fatalf("node %d already on air at %d < %d", id, s, got)
			}
		}
	}
}

func TestDualChannelOverDistributed(t *testing.T) {
	p := DefaultParams()
	treeS := buildTestTree(50, p)
	treeR := buildTestTree(31, p)
	diS := BuildIndex(treeS, p, IndexSpec{Scheme: SchemeDistributed})
	diR := BuildIndex(treeR, p, IndexSpec{Scheme: SchemeDistributed})
	s, r := Multiplex(diS, diR, 777)
	period := s.period
	rng := rand.New(rand.NewSource(2))
	for _, f := range []Feed{s, r} {
		tree := f.Index().Tree()
		for trial := 0; trial < 150; trial++ {
			after := rng.Int63n(2 * period)
			id := rng.Intn(tree.NumNodes())
			got := f.NextNodeArrival(id, after)
			if got < after || got >= after+period {
				t.Fatalf("arrival %d outside [after, after+cycle)", got)
			}
			if n, _ := f.ReadNode(got); n.ID != id {
				t.Fatalf("slot %d carries node %d, want %d", got, n.ID, id)
			}
			obj := rng.Intn(tree.Count)
			ga := f.NextObjectArrival(obj, after)
			if pg := f.PageAt(ga); pg.Kind != DataPage || pg.ObjectID != obj || pg.Seq != 0 {
				t.Fatalf("slot %d carries %+v, want object %d start", ga, pg, obj)
			}
		}
	}
}
