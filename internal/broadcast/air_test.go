package broadcast

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// mustAir is BuildAir on inputs whose cycles fit in 2³¹-1 slots: an
// error fails the test.
func mustAir(t testing.TB, sets [][]geom.Point, spec AirSpec) *Air {
	t.Helper()
	air, err := BuildAir(sets, spec)
	if err != nil {
		t.Fatal(err)
	}
	return air
}

// TestBuildAirLayout checks the air's physical channels against its own
// feeds: on every slot of every physical channel, PageOn names a page and
// an owning dataset whose feed agrees, phases are normalized, and a
// channel's faults follow DeriveFaultSeed of its index. The subtests
// cover the packing, Rephase and Clone.
func TestBuildAirLayout(t *testing.T) {
	sets := [][]geom.Point{
		dataset.Uniform(1, 40, dataset.PaperRegion),
		dataset.Uniform(2, 25, dataset.PaperRegion),
	}
	faults := FaultModel{Loss: 0.2, Corrupt: 0.1, Seed: 7}
	for _, single := range []bool{false, true} {
		spec := AirSpec{
			Params: DefaultParams(),
			Phases: [2]int64{-3, 1 << 40},
			Single: single,
			Faults: faults,
		}
		air := mustAir(t, sets, spec)
		wantChans := 2
		if single {
			wantChans = 1
		}
		if air.Channels() != wantChans {
			t.Fatalf("single=%v: %d channels, want %d", single, air.Channels(), wantChans)
		}
		for c := range air.Channels() {
			cycle, phase := air.CycleLen(c), air.Phase(c)
			if want := floorMod(spec.Phases[c], cycle); phase != want {
				t.Errorf("single=%v channel %d: phase %d, want %d", single, c, phase, want)
			}
			model := faults.WithSeed(DeriveFaultSeed(faults.Seed, uint64(c)))
			ref := NewFaultFeed(NewChannel(air.Indexes[0], 0), model)
			for t0 := phase - cycle; t0 < phase+cycle; t0++ {
				pg, d := air.PageOn(c, t0)
				if air.ChannelOf(d) != c {
					t.Fatalf("single=%v slot %d: owner %d is not on channel %d", single, t0, d, c)
				}
				if got := air.Feeds[d].PageAt(t0); got != pg {
					t.Fatalf("single=%v slot %d: PageOn %+v, feed %d says %+v", single, t0, pg, d, got)
				}
				got, want := air.Fault(c, t0), ref.Fault(t0)
				if (got == nil) != (want == nil) || (got != nil && *got != *want) {
					t.Fatalf("single=%v channel %d slot %d: fault %v, want %v", single, c, t0, got, want)
				}
				if owner := air.Feeds[d].Fault(t0); (owner == nil) != (want == nil) {
					t.Fatalf("single=%v slot %d: dataset %d's feed faults unlike its channel", single, t0, d)
				}
			}
		}
	}

	t.Run("packing", func(t *testing.T) {
		spec := AirSpec{Params: DefaultParams(), Packing: rtree.HilbertSort}
		air := mustAir(t, sets, spec)
		for i, set := range sets {
			rcfg := rtree.Config{LeafCap: spec.Params.LeafCap(), NodeCap: spec.Params.NodeCap()}
			if reflect.DeepEqual(air.Trees[i], rtree.Build(set, rcfg)) {
				t.Fatalf("dataset %d: the Hilbert tree equals the STR tree", i)
			}
			rcfg.Packing = rtree.HilbertSort
			if !reflect.DeepEqual(air.Trees[i], rtree.Build(set, rcfg)) {
				t.Errorf("dataset %d: tree differs from rtree.Build with HilbertSort", i)
			}
		}
	})
	for _, single := range []bool{false, true} {
		layout := map[bool]string{false: "dedicated", true: "single"}[single]
		orig := AirSpec{Params: DefaultParams(), Phases: [2]int64{-3, 1 << 40}, Single: single, Faults: faults}
		moved := orig
		moved.Phases = [2]int64{12345, -77}
		ref := mustAir(t, sets, moved)
		t.Run("rephase/"+layout, func(t *testing.T) {
			air := mustAir(t, sets, orig)
			air.Rephase(moved.Phases)
			sameAir(t, air, ref)
		})
		t.Run("clone/"+layout, func(t *testing.T) {
			air := mustAir(t, sets, orig)
			c := air.Clone()
			for i := range sets {
				if c.Trees[i] != air.Trees[i] || c.Indexes[i] != air.Indexes[i] {
					t.Fatalf("dataset %d: the copy does not share its tree and index", i)
				}
			}
			c.Rephase(moved.Phases)
			sameAir(t, c, ref)
			sameAir(t, air, mustAir(t, sets, orig)) // the original keeps its phases
		})
		t.Run("allocs/"+layout, func(t *testing.T) {
			air := mustAir(t, sets, orig)
			if n := testing.AllocsPerRun(100, func() { air.Rephase(moved.Phases) }); n != 0 {
				t.Errorf("Rephase allocates %v times", n)
			}
		})
	}
}

// sameAir requires got to answer Phase, PageOn and Fault like want on
// every slot of two cycles of every physical channel, and its feeds to
// agree on the next root arrival.
func sameAir(t *testing.T, got, want *Air) {
	t.Helper()
	for c := range want.Channels() {
		cycle, phase := want.CycleLen(c), want.Phase(c)
		if got.Phase(c) != phase {
			t.Fatalf("channel %d: phase %d, want %d", c, got.Phase(c), phase)
		}
		for t0 := -cycle; t0 < cycle; t0++ {
			gp, gd := got.PageOn(c, t0)
			wp, wd := want.PageOn(c, t0)
			if gp != wp || gd != wd {
				t.Fatalf("channel %d slot %d: page %+v of %d, want %+v of %d", c, t0, gp, gd, wp, wd)
			}
			gf, wf := got.Fault(c, t0), want.Fault(c, t0)
			if (gf == nil) != (wf == nil) || (gf != nil && *gf != *wf) {
				t.Fatalf("channel %d slot %d: fault %v, want %v", c, t0, gf, wf)
			}
		}
	}
	for d := range want.Feeds {
		for t0 := int64(-50); t0 < 50; t0++ {
			if g, w := got.Feeds[d].NextRootArrival(t0), want.Feeds[d].NextRootArrival(t0); g != w {
				t.Fatalf("dataset %d: root after %d at %d, want %d", d, t0, g, w)
			}
		}
	}
}

// TestParseScheme round-trips every scheme through its name and rejects
// an unknown one.
func TestParseScheme(t *testing.T) {
	for _, s := range []SchemeID{SchemePreorder, SchemeDistributed} {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("hashed"); err == nil {
		t.Error("ParseScheme accepted an unknown scheme")
	}
}

// TestBuildAirMatchesSerialBuild checks BuildAir against rtree.Build and
// BuildIndex run one dataset after another: every Flat column bit for
// bit, and each index's cycle length, pages over one cycle and pointer
// table, plus each physical channel's cycle length. The cases cover both
// index families, a skewed schedule, a multiplexed channel and a chain of
// three datasets, on uniform points and on tie-heavy integer grids.
func TestBuildAirMatchesSerialBuild(t *testing.T) {
	grid := func(seed int64, cells, n int) []geom.Point {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(cells)), float64(rng.Intn(cells)))
		}
		return pts
	}
	data := map[string][][]geom.Point{
		"uniform": {
			dataset.Uniform(1, 900, dataset.PaperRegion),
			dataset.Uniform(2, 650, dataset.PaperRegion),
			dataset.Uniform(3, 900, dataset.PaperRegion),
		},
		"grid": {grid(4, 7, 700), grid(5, 40, 1500), grid(6, 3, 700)},
	}
	weightsFor := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 + float64(i%5)
		}
		return w
	}
	cases := []struct {
		name string
		sets int
		spec func(sets [][]geom.Point) AirSpec
	}{
		{"preorder", 2, func([][]geom.Point) AirSpec { return AirSpec{Params: DefaultParams(), Phases: [2]int64{5, -9}} }},
		{"distributed+cut", 2, func([][]geom.Point) AirSpec {
			return AirSpec{Params: DefaultParams(), Scheme: SchemeDistributed, Cut: 2}
		}},
		{"skewed", 2, func(sets [][]geom.Point) AirSpec {
			return AirSpec{Params: DefaultParams(), SkewDisks: 3, SkewRatio: 2,
				Weights: [2][]float64{weightsFor(len(sets[0])), weightsFor(len(sets[1]))}}
		}},
		{"single", 2, func([][]geom.Point) AirSpec {
			return AirSpec{Params: DefaultParams(), Scheme: SchemeDistributed, Single: true, Phases: [2]int64{77}}
		}},
		{"chain", 3, func([][]geom.Point) AirSpec { return AirSpec{Params: DefaultParams(), Phases: [2]int64{1, 2}} }},
	}
	for _, dname := range []string{"uniform", "grid"} {
		for _, c := range cases {
			name := dname + "/" + c.name
			sets := data[dname][:c.sets]
			spec := c.spec(sets)
			air := mustAir(t, sets, spec)
			rcfg := rtree.Config{LeafCap: spec.Params.LeafCap(), NodeCap: spec.Params.NodeCap(), Packing: spec.Packing}
			var cycles []int64
			for i, set := range sets {
				tree := rtree.Build(set, rcfg)
				idx := BuildIndex(tree, spec.Params, spec.indexSpec(spec.Weights[i%2]))
				sameFlat(t, fmt.Sprintf("%s dataset %d", name, i), air.Trees[i].Flat(), tree.Flat())
				got := air.Indexes[i]
				if got.CycleLen() != idx.CycleLen() {
					t.Fatalf("%s dataset %d: cycle %d, serial build %d", name, i, got.CycleLen(), idx.CycleLen())
				}
				for s := range idx.CycleLen() {
					if g, w := got.PageAt(s), idx.PageAt(s); g != w {
						t.Fatalf("%s dataset %d slot %d: page %+v, serial build %+v", name, i, s, g, w)
					}
				}
				if !slices.Equal(got.ChildDelays(), idx.ChildDelays()) {
					t.Fatalf("%s dataset %d: pointer table differs from the serial build's", name, i)
				}
				cycles = append(cycles, idx.CycleLen())
			}
			if spec.Single {
				cycles = []int64{cycles[0] + cycles[1]}
			}
			if air.Channels() != len(cycles) {
				t.Fatalf("%s: %d channels, want %d", name, air.Channels(), len(cycles))
			}
			for ch, want := range cycles {
				if air.CycleLen(ch) != want {
					t.Fatalf("%s channel %d: cycle %d, want %d", name, ch, air.CycleLen(ch), want)
				}
			}
		}
	}
}

// sameFlat requires got to equal want column for column, floats by their
// bits.
func sameFlat(t *testing.T, name string, got, want *rtree.Flat) {
	t.Helper()
	ints := map[string][2][]int32{
		"Depth": {got.Depth, want.Depth}, "Parent": {got.Parent, want.Parent},
		"SubEnd": {got.SubEnd, want.SubEnd}, "EntFirst": {got.EntFirst, want.EntFirst},
		"EntCount": {got.EntCount, want.EntCount}, "LeafFirst": {got.LeafFirst, want.LeafFirst},
		"LeafCount": {got.LeafCount, want.LeafCount}, "Key": {got.Key, want.Key}, "ID": {got.ID, want.ID},
	}
	floats := map[string][2][]float64{
		"MinX": {got.MinX, want.MinX}, "MinY": {got.MinY, want.MinY},
		"MaxX": {got.MaxX, want.MaxX}, "MaxY": {got.MaxY, want.MaxY},
		"X": {got.X, want.X}, "Y": {got.Y, want.Y},
		"RootMBR": {
			{got.RootMBR.Lo.X, got.RootMBR.Lo.Y, got.RootMBR.Hi.X, got.RootMBR.Hi.Y},
			{want.RootMBR.Lo.X, want.RootMBR.Lo.Y, want.RootMBR.Hi.X, want.RootMBR.Hi.Y},
		},
	}
	for _, col := range slices.Sorted(maps.Keys(ints)) {
		if !slices.Equal(ints[col][0], ints[col][1]) {
			t.Fatalf("%s: Flat.%s differs from the serial build's", name, col)
		}
	}
	for _, col := range slices.Sorted(maps.Keys(floats)) {
		g, w := floats[col][0], floats[col][1]
		if !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: Flat.%s differs from the serial build's", name, col)
		}
	}
}

// TestBuildAirPanicsOnCaller checks that a build that panics, here R's
// index over a weight vector one short, panics on BuildAir's caller with
// BuildIndex's value, where a recover catches it.
func TestBuildAirPanicsOnCaller(t *testing.T) {
	sets := [][]geom.Point{
		dataset.Uniform(1, 300, dataset.PaperRegion),
		dataset.Uniform(2, 200, dataset.PaperRegion),
	}
	spec := AirSpec{Params: DefaultParams(), SkewDisks: 2, SkewRatio: 2,
		Weights: [2][]float64{nil, make([]float64, 199)}}
	got := func() (v any) {
		defer func() { v = recover() }()
		BuildAir(sets, spec)
		return nil
	}()
	if want := "broadcast: 199 weights for 200 objects"; got != want {
		t.Fatalf("BuildAir panicked with %#v, want %q", got, want)
	}
}
