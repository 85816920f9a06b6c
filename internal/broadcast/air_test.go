package broadcast

import (
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
)

// TestBuildAirLayout checks the air's physical channels against its own
// feeds: on every slot of every physical channel, PageOn names a page and
// an owning dataset whose feed agrees, phases are normalized, and a
// channel's faults follow DeriveFaultSeed of its index.
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
}
