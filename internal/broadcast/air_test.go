package broadcast

import (
	"reflect"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

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
		air := BuildAir(sets, spec)
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
		air := BuildAir(sets, spec)
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
		ref := BuildAir(sets, moved)
		t.Run("rephase/"+layout, func(t *testing.T) {
			air := BuildAir(sets, orig)
			air.Rephase(moved.Phases)
			sameAir(t, air, ref)
		})
		t.Run("clone/"+layout, func(t *testing.T) {
			air := BuildAir(sets, orig)
			c := air.Clone()
			for i := range sets {
				if c.Trees[i] != air.Trees[i] || c.Indexes[i] != air.Indexes[i] {
					t.Fatalf("dataset %d: the copy does not share its tree and index", i)
				}
			}
			c.Rephase(moved.Phases)
			sameAir(t, c, ref)
			sameAir(t, air, BuildAir(sets, orig)) // the original keeps its phases
		})
		t.Run("allocs/"+layout, func(t *testing.T) {
			air := BuildAir(sets, orig)
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
