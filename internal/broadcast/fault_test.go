package broadcast

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/rtree"
)

func buildFaultChannel(t testing.TB, n int, offset int64) *Channel {
	t.Helper()
	p := DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	tree := rtree.Build(dataset.Uniform(91, n, dataset.PaperRegion), cfg)
	return NewChannel(BuildIndex(tree, p, IndexSpec{}), offset)
}

func TestFaultModelValidate(t *testing.T) {
	good := []FaultModel{
		{},
		{Loss: 0.01},
		{Loss: 0.5, Burst: 8},
		{Corrupt: 0.02},
		{Loss: 0.1, Burst: 1, Corrupt: 0.1, Seed: 42},
	}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	bad := []FaultModel{
		{Loss: -0.1},
		{Loss: 1},
		{Loss: 1.5},
		{Corrupt: -0.01},
		{Corrupt: 1},
		{Loss: 0.1, Burst: -2},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
}

// TestFaultDeterminism: the fault at a slot is a pure function of
// (seed, slot). Two independently constructed feeds over the same model
// agree everywhere; changing the seed — or deriving a different
// channel's seed — changes the pattern.
func TestFaultDeterminism(t *testing.T) {
	ch := buildFaultChannel(t, 300, 5)
	const span = 20000

	for _, m := range []FaultModel{
		{Loss: 0.05, Seed: 1},
		{Loss: 0.05, Burst: 8, Seed: 1},
		{Corrupt: 0.05, Seed: 1},
	} {
		a := NewFaultFeed(ch, m)
		b := NewFaultFeed(ch, m)
		diffSeed := NewFaultFeed(ch, m.WithSeed(m.Seed+1))
		diffChan := NewFaultFeed(ch, m.WithSeed(DeriveFaultSeed(m.Seed, 1)))
		var divergedSeed, divergedChan bool
		for slot := int64(-span / 2); slot < span/2; slot++ {
			fa, fb := a.Fault(slot), b.Fault(slot)
			if (fa == nil) != (fb == nil) {
				t.Fatalf("model %+v: slot %d not deterministic", m, slot)
			}
			if fa != nil && (fa.Slot != slot || *fa != *fb) {
				t.Fatalf("model %+v: slot %d fault mismatch: %v vs %v", m, slot, fa, fb)
			}
			if (fa == nil) != (diffSeed.Fault(slot) == nil) {
				divergedSeed = true
			}
			if (fa == nil) != (diffChan.Fault(slot) == nil) {
				divergedChan = true
			}
		}
		if !divergedSeed {
			t.Errorf("model %+v: seed change never changed the pattern", m)
		}
		if !divergedChan {
			t.Errorf("model %+v: DeriveFaultSeed never decorrelated channels", m)
		}
	}
}

// TestFaultStationaryRate: the empirical fault rate matches the model.
// For bursty loss the Gilbert–Elliott chain must hold the SAME
// stationary rate as i.i.d. loss — bursts redistribute faults, they do
// not add any — and the mean burst length must be near the configured
// dwell time.
func TestFaultStationaryRate(t *testing.T) {
	ch := buildFaultChannel(t, 300, 0)
	const span = 400000

	for _, tc := range []struct {
		name string
		m    FaultModel
		want float64
	}{
		{"iid", FaultModel{Loss: 0.05, Seed: 9}, 0.05},
		{"burst8", FaultModel{Loss: 0.05, Burst: 8, Seed: 9}, 0.05},
		{"corrupt", FaultModel{Corrupt: 0.02, Seed: 9}, 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ff := NewFaultFeed(ch, tc.m)
			var faults, bursts, burstSlots int
			inBurst := false
			for slot := int64(0); slot < span; slot++ {
				f := ff.Fault(slot)
				if f != nil {
					faults++
					burstSlots++
					if !inBurst {
						bursts++
						inBurst = true
					}
				} else {
					inBurst = false
				}
			}
			rate := float64(faults) / span
			if math.Abs(rate-tc.want) > 0.15*tc.want {
				t.Errorf("empirical rate %.4f, want %.4f ±15%%", rate, tc.want)
			}
			if tc.m.Burst > 1 {
				mean := float64(burstSlots) / float64(bursts)
				// Block renewal clips bursts at geBlock boundaries, so
				// allow a generous band around the configured dwell.
				if mean < tc.m.Burst/2 || mean > tc.m.Burst*2 {
					t.Errorf("mean burst length %.2f, want near %g", mean, tc.m.Burst)
				}
			}
		})
	}
}

// lost evaluates the loss process at slot t without a mark, as Fault
// does.
func (ff *FaultFeed) lost(t int64) bool {
	var mk lossMark
	return ff.lostMarked(t, &mk)
}

// lostForward is the reference Gilbert–Elliott evaluation: draw the state
// at the block boundary and iterate the chain forward to t. lost must
// agree with it at every slot.
func (ff *FaultFeed) lostForward(t int64) bool {
	if ff.model.Burst <= 1 {
		return u01(ff.hash(t, saltLoss)) < ff.model.Loss
	}
	b := t - floorMod(t, geBlock)
	bad := u01(ff.hash(b, saltGEInit)) < ff.model.Loss
	for s := b + 1; s <= t; s++ {
		u := u01(ff.hash(s, saltGEStep))
		if bad {
			bad = u >= ff.pBG
		} else {
			bad = u < ff.pGB
		}
	}
	return bad
}

// TestFaultLostMatchesForward: the backward scan of lost is the same
// function of (seed, slot) as the forward iteration, over 10⁶ slots
// (negative ones included) per model. The models cover the typical
// bursty channel, Loss >= 0.5 (pGB > pBG, and pGB > 1), pGB == pBG where
// no slot ever forces the state, Burst near 1, and Burst >= 100, where
// forcing slots are rare and the scan runs to the block boundary.
func TestFaultLostMatchesForward(t *testing.T) {
	ch := buildFaultChannel(t, 100, 0)
	const span = 1_000_000
	for _, m := range []FaultModel{
		{Loss: 0.01, Burst: 8, Seed: 1},
		{Loss: 0.6, Burst: 3, Seed: 2},
		{Loss: 0.9, Burst: 1.05, Seed: 3},
		{Loss: 0.5, Burst: 2, Seed: 4},
		{Loss: 0.01, Burst: 1.001, Seed: 5},
		{Loss: 0.05, Burst: 150, Seed: 6},
		{Loss: 0.3, Burst: 400, Seed: 7},
	} {
		ff := NewFaultFeed(ch, m)
		var lost int
		for slot := int64(-span / 2); slot < span/2; slot++ {
			got, want := ff.lost(slot), ff.lostForward(slot)
			if got != want {
				t.Fatalf("model %+v: slot %d: lost = %v, forward iteration = %v", m, slot, got, want)
			}
			if got {
				lost++
			}
		}
		if lost == 0 || lost == span {
			t.Errorf("model %+v: degenerate pattern, %d of %d slots lost", m, lost, span)
		}
	}
}

// faultForward is the reference fault evaluation: lostForward, then the
// corruption draw, in Fault's order.
func (ff *FaultFeed) faultForward(t int64) *PageFault {
	m := ff.model
	if m.Loss > 0 && ff.lostForward(t) {
		return &PageFault{Slot: t, Kind: FaultLost}
	}
	if m.Corrupt > 0 && u01(ff.hash(t, saltCorrupt)) < m.Corrupt {
		return &PageFault{Slot: t, Kind: FaultCorrupt}
	}
	return nil
}

// markedWalk draws the next slot of an arbitrary lookup sequence: mostly
// small forward gaps, as a query's reads come, mixed with repeats,
// backward jumps inside and across blocks, jumps over block boundaries
// and resets to a fresh slot anywhere, negative ones included.
func markedWalk(rng *rand.Rand, t int64) int64 {
	switch r := rng.Intn(100); {
	case r < 55:
		return t + 1 + rng.Int63n(4)
	case r < 65:
		return t
	case r < 75:
		return t - 1 - rng.Int63n(geBlock)
	case r < 85:
		return t + geBlock/2 + rng.Int63n(3*geBlock)
	case r < 92:
		return t - rng.Int63n(5*geBlock)
	default:
		return rng.Int63n(1<<20) - 1<<19
	}
}

// TestFaultMarkedMatchesForward: a marked lookup is the forward-iteration
// fault for every slot of 10⁶ lookups per model, whatever the order the
// mark was advanced in. The models cover i.i.d. loss, the session's 1% in
// bursts of 8, Loss >= 0.5, pGB == pBG (no slot forces its state, so the
// scan ends at the mark or the boundary) and Burst 150, each with and
// without corruption.
func TestFaultMarkedMatchesForward(t *testing.T) {
	ch := buildFaultChannel(t, 100, 0)
	const lookups, perSeq = 1_000_000, 1000
	for _, m := range []FaultModel{
		{Loss: 0.05, Seed: 21},
		{Loss: 0.01, Burst: 8, Seed: 22},
		{Loss: 0.6, Burst: 3, Seed: 23},
		{Loss: 0.5, Burst: 2, Seed: 24},
		{Loss: 0.05, Burst: 150, Seed: 25},
	} {
		for _, corrupt := range []float64{0, 0.1} {
			m.Corrupt = corrupt
			ff := NewFaultFeed(ch, m)
			rng := rand.New(rand.NewSource(int64(m.Seed)))
			var lost, corrupted int
			for seq := 0; seq < lookups/perSeq; seq++ {
				var mk lossMark
				slot := rng.Int63n(1<<20) - 1<<19
				for k := 0; k < perSeq; k++ {
					slot = markedWalk(rng, slot)
					got, want := ff.fault(slot, &mk), ff.faultForward(slot)
					if (got == nil) != (want == nil) || got != nil && *got != *want {
						t.Fatalf("model %+v: sequence %d lookup %d, slot %d: marked fault %v, forward iteration %v",
							m, seq, k, slot, got, want)
					}
					if m.Burst > 1 && (!mk.set || mk.slot != slot) {
						t.Fatalf("model %+v: slot %d: mark left at %+v", m, slot, mk)
					}
					if got != nil && got.Kind == FaultLost {
						lost++
					} else if got != nil {
						corrupted++
					}
				}
			}
			if lost == 0 || (corrupt > 0) != (corrupted > 0) {
				t.Errorf("model %+v: degenerate pattern, %d lost and %d corrupted of %d", m, lost, corrupted, lookups)
			}
		}
	}
}

// TestFaultFeedSchedulePassthrough: faults hit receptions only. Schedule
// truth — page descriptors, arrival times, the index — is what the
// transmitter put on air and passes through untouched, which is exactly
// what makes recovery by re-derived arrival possible.
func TestFaultFeedSchedulePassthrough(t *testing.T) {
	ch := buildFaultChannel(t, 200, 17)
	ff := NewFaultFeed(ch, FaultModel{Loss: 0.3, Corrupt: 0.1, Seed: 3})

	if ff.Index() != ch.Index() {
		t.Fatal("Index() not passed through")
	}
	cycle := ch.Index().CycleLen()
	nodes := ch.Index().NumIndexPages()
	for slot := int64(17); slot < 17+2*cycle; slot++ {
		if got, want := ff.PageAt(slot), ch.PageAt(slot); got != want {
			t.Fatalf("PageAt(%d) = %+v, want %+v", slot, got, want)
		}
		if got, want := ff.NextRootArrival(slot), ch.NextRootArrival(slot); got != want {
			t.Fatalf("NextRootArrival(%d) = %d, want %d", slot, got, want)
		}
		if got, want := ff.NextNodeArrival(int(slot)%nodes, slot), ch.NextNodeArrival(int(slot)%nodes, slot); got != want {
			t.Fatalf("NextNodeArrival(%d) diverges", slot)
		}
	}

	// ReadNode: clean slots serve the inner node, faulted slots report
	// the fault (loss masks corruption — a page that never arrived
	// cannot fail its checksum).
	var sawLost, sawCorrupt, sawClean bool
	for slot := int64(17); slot < 17+4*cycle; slot++ {
		if ff.PageAt(slot).Kind != IndexPage {
			continue
		}
		n, pf := ff.ReadNode(slot)
		switch {
		case pf == nil:
			sawClean = true
			want, _ := ch.ReadNode(slot)
			if n != want {
				t.Fatalf("clean ReadNode(%d) diverges from inner", slot)
			}
		case pf.Kind == FaultLost:
			sawLost = true
		case pf.Kind == FaultCorrupt:
			sawCorrupt = true
		}
		if pf != nil && (n != nil || pf.Slot != slot) {
			t.Fatalf("faulted ReadNode(%d) = (%v, %v)", slot, n, pf)
		}
	}
	if !sawLost || !sawCorrupt || !sawClean {
		t.Fatalf("fault mix not exercised: lost=%v corrupt=%v clean=%v",
			sawLost, sawCorrupt, sawClean)
	}
}

// TestFaultFeedConcurrent: a FaultFeed holds no mutable state; concurrent
// readers must observe the identical fault pattern (run under -race).
func TestFaultFeedConcurrent(t *testing.T) {
	ch := buildFaultChannel(t, 150, 0)
	ff := NewFaultFeed(ch, FaultModel{Loss: 0.1, Burst: 4, Corrupt: 0.05, Seed: 77})
	const span = 5000

	want := make([]FaultKind, span)
	for slot := int64(0); slot < span; slot++ {
		if f := ff.Fault(slot); f != nil {
			want[slot] = f.Kind
		} else {
			want[slot] = -1
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := int64(0); slot < span; slot++ {
				got := FaultKind(-1)
				if f := ff.Fault(slot); f != nil {
					got = f.Kind
				}
				if got != want[slot] {
					t.Errorf("slot %d: concurrent read saw %v, want %v", slot, got, want[slot])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDeriveFaultSeed: distinct channels must get decorrelated seeds from
// the same root seed, and the derivation must be stable (it is part of
// the determinism contract across worker counts).
func TestDeriveFaultSeed(t *testing.T) {
	seen := map[uint64]uint64{}
	for chID := uint64(0); chID < 64; chID++ {
		s := DeriveFaultSeed(12345, chID)
		if prev, dup := seen[s]; dup {
			t.Fatalf("channels %d and %d collide on seed %#x", prev, chID, s)
		}
		seen[s] = chID
		if s != DeriveFaultSeed(12345, chID) {
			t.Fatal("DeriveFaultSeed is not stable")
		}
	}
}

// BenchmarkFaultLostBurst times the Gilbert–Elliott loss evaluation on
// the session workload's channel model, 1% loss in bursts of 8: one op is
// 64 slot evaluations, spread over every position within a block.
func BenchmarkFaultLostBurst(b *testing.B) {
	ff := NewFaultFeed(buildFaultChannel(b, 100, 0), FaultModel{Loss: 0.01, Burst: 8, Seed: 1})
	var lost int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := int64(0); k < 64; k++ {
			if ff.lost((int64(i)*64 + k) * 7919) {
				lost++
			}
		}
	}
	if b.N >= 100_000 && lost == 0 {
		b.Fatal("no slot lost")
	}
}

// BenchmarkMemoFault times the loss lookups of query-shaped reads through
// a MemoFeed over the session workload's channel model, 1% loss in bursts
// of 8: one op is 64 lookups at slots rising by 1–4, the gaps of a
// worker's reads, so most land shortly after the previous one in the
// same renewal block and the memo's mark bounds their scans.
func BenchmarkMemoFault(b *testing.B) {
	memo := NewMemoFeed(NewFaultFeed(buildFaultChannel(b, 100, 0), FaultModel{Loss: 0.01, Burst: 8, Seed: 1}))
	rng := rand.New(rand.NewSource(1))
	var gaps [1024]int64
	for i := range gaps {
		gaps[i] = 1 + rng.Int63n(4)
	}
	var slot int64
	var lost int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 64; k++ {
			slot += gaps[(i*64+k)%len(gaps)]
			if memo.Fault(slot) != nil {
				lost++
			}
		}
	}
	if b.N >= 100_000 && lost == 0 {
		b.Fatal("no slot lost")
	}
}
