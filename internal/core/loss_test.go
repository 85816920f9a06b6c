package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// lossEnvPair builds a clean environment and a lossy twin over the SAME
// broadcast programs and phases, mirroring how the public API wires
// FaultFeeds: dedicated channels get per-channel derived seeds; both
// shares of a multiplexed channel take one physical-channel seed (a slot
// dies once, for whichever dataset's page it carried).
func lossEnvPair(t *testing.T, ptsS, ptsR []geom.Point, spec broadcast.IndexSpec,
	dual bool, offS, offR int64, fm broadcast.FaultModel) (clean, lossy Env) {
	t.Helper()
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	idxS := broadcast.BuildIndex(rtree.Build(ptsS, cfg), p, spec)
	idxR := broadcast.BuildIndex(rtree.Build(ptsR, cfg), p, spec)
	if dual {
		s1, r1 := broadcast.Multiplex(idxS, idxR, offS)
		s2, r2 := broadcast.Multiplex(idxS, idxR, offS)
		phys := fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 0))
		clean = Env{ChS: s1, ChR: r1, Region: testRegion}
		lossy = Env{
			ChS:    broadcast.NewFaultFeed(s2, phys),
			ChR:    broadcast.NewFaultFeed(r2, phys),
			Region: testRegion,
		}
		return clean, lossy
	}
	chS, chR := broadcast.NewChannel(idxS, offS), broadcast.NewChannel(idxR, offR)
	clean = Env{ChS: chS, ChR: chR, Region: testRegion}
	lossy = Env{
		ChS:    broadcast.NewFaultFeed(chS, fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 0))),
		ChR:    broadcast.NewFaultFeed(chR, fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 1))),
		Region: testRegion,
	}
	return clean, lossy
}

// lossFaultLadder is the differential suite's fault grid: the paper
// ladder's i.i.d. points, a bursty variant, a corruption-only point, and
// a mixed one.
var lossFaultLadder = []struct {
	name string
	m    broadcast.FaultModel
}{
	{"p=0.001", broadcast.FaultModel{Loss: 0.001, Seed: 21}},
	{"p=0.01", broadcast.FaultModel{Loss: 0.01, Seed: 21}},
	{"p=0.05", broadcast.FaultModel{Loss: 0.05, Seed: 21}},
	{"p=0.01 burst=8", broadcast.FaultModel{Loss: 0.01, Burst: 8, Seed: 21}},
	{"corrupt=0.02", broadcast.FaultModel{Corrupt: 0.02, Seed: 21}},
	{"p=0.02 corrupt=0.02", broadcast.FaultModel{Loss: 0.02, Corrupt: 0.02, Seed: 21}},
}

// TestLossDifferential is the acceptance suite for the recovery protocol:
// for all four algorithms, on both index families and on a multiplexed
// channel, at every fault point the answer is bit-identical to the
// lossless run — loss only spends time (access) and energy (tune-in).
func TestLossDifferential(t *testing.T) {
	algos := []struct {
		name string
		run  func(Env, geom.Point, Options) Result
	}{
		{"Window-Based", algoFunc(AlgoWindow)},
		{"Double-NN", algoFunc(AlgoDouble)},
		{"Hybrid-NN", algoFunc(AlgoHybrid)},
		{"Approximate-TNN", algoFunc(AlgoApprox)},
	}
	layouts := []struct {
		name string
		spec broadcast.IndexSpec
		dual bool
	}{
		{"preorder", broadcast.IndexSpec{}, false},
		{"distributed", broadcast.IndexSpec{Scheme: broadcast.SchemeDistributed}, false},
		{"dualchannel", broadcast.IndexSpec{}, true},
	}

	rng := rand.New(rand.NewSource(6))
	ptsS := uniformPts(rng, 500, testRegion)
	ptsR := clusteredPts(rng, 400, 4, testRegion)

	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			for _, fp := range lossFaultLadder {
				t.Run(fp.name, func(t *testing.T) {
					clean, lossy := lossEnvPair(t, ptsS, ptsR, lay.spec, lay.dual, 13, 377, fp.m)
					qrng := rand.New(rand.NewSource(99))
					var totalLost, sumAccessClean, sumAccessLossy, sumTuneClean, sumTuneLossy int64
					for q := 0; q < 12; q++ {
						p := geom.Pt(qrng.Float64()*1000, qrng.Float64()*1000)
						opt := Options{Issue: qrng.Int63n(50000)}
						for _, a := range algos {
							want := a.run(clean, p, opt)
							got := a.run(lossy, p, opt)
							if got.Err != nil {
								t.Fatalf("%s q=%d: escalated at %s: %v", a.name, q, fp.name, got.Err)
							}
							if got.Found != want.Found ||
								got.Pair.S.ID != want.Pair.S.ID ||
								got.Pair.R.ID != want.Pair.R.ID ||
								got.Pair.Dist != want.Pair.Dist {
								t.Fatalf("%s q=%d: answer changed under %s:\n  lossy %+v\n  clean %+v",
									a.name, q, fp.name, got.Pair, want.Pair)
							}
							if want.Metrics.Lost != 0 || want.Metrics.Retries != 0 || want.Metrics.RecoverySlots != 0 {
								t.Fatalf("%s q=%d: clean run reported loss accounting: %+v",
									a.name, q, want.Metrics)
							}
							// A query that saw no faults executed the clean
							// schedule slot for slot.
							if got.Metrics.Lost == 0 && got.Metrics != want.Metrics {
								t.Fatalf("%s q=%d: zero faults but metrics diverge:\n  lossy %+v\n  clean %+v",
									a.name, q, got.Metrics, want.Metrics)
							}
							// A faulted query pays in access time. (Tune-in is
							// only monotone in aggregate: the delay a fault
							// imposes can tighten a pruning bound and save a
							// page or two on an individual query.)
							if got.Metrics.AccessTime < want.Metrics.AccessTime {
								t.Fatalf("%s q=%d: lossy access %d < clean %d",
									a.name, q, got.Metrics.AccessTime, want.Metrics.AccessTime)
							}
							if got.Metrics.Lost < got.Metrics.Retries {
								t.Fatalf("%s q=%d: retries %d exceed faults %d",
									a.name, q, got.Metrics.Retries, got.Metrics.Lost)
							}
							totalLost += got.Metrics.Lost
							sumAccessClean += want.Metrics.AccessTime
							sumAccessLossy += got.Metrics.AccessTime
							sumTuneClean += want.Metrics.TuneIn
							sumTuneLossy += got.Metrics.TuneIn
						}
					}
					if totalLost == 0 && (fp.m.Loss >= 0.01 || fp.m.Corrupt > 0) {
						t.Fatalf("%s never faulted — the point tests nothing", fp.name)
					}
					if sumAccessLossy < sumAccessClean || sumTuneLossy < sumTuneClean {
						t.Fatalf("%s: aggregate cost shrank under loss: access %d -> %d, tune-in %d -> %d",
							fp.name, sumAccessClean, sumAccessLossy, sumTuneClean, sumTuneLossy)
					}
				})
			}
		})
	}
}

// TestLossDeterministicMetrics: the same query on the same lossy
// environment reports bit-identical metrics — faults are a pure function
// of (seed, slot), so resilience does not cost reproducibility.
func TestLossDeterministicMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ptsS := uniformPts(rng, 300, testRegion)
	ptsR := uniformPts(rng, 300, testRegion)
	_, lossy := lossEnvPair(t, ptsS, ptsR, broadcast.IndexSpec{}, false, 5, 9,
		broadcast.FaultModel{Loss: 0.03, Burst: 4, Seed: 31})

	p := geom.Pt(321, 654)
	opt := Options{Issue: 1234}
	for _, algo := range []Algo{AlgoWindow, AlgoDouble, AlgoHybrid, AlgoApprox} {
		a := run(lossy, algo, p, opt)
		b := run(lossy, algo, p, opt)
		if a.Metrics != b.Metrics || a.Pair != b.Pair || a.Found != b.Found {
			t.Fatalf("repeat run diverged:\n  %+v\n  %+v", a, b)
		}
	}
}

// TestLossTraceFault: the TraceFault callback fires exactly once per
// faulted reception — Metrics.Lost and the event stream agree — and every
// reported channel tag is one of the query's own channels: S and R for a
// two-dataset query, ch0, ch1, … for a chain.
func TestLossTraceFault(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ptsS := uniformPts(rng, 300, testRegion)
	ptsR := uniformPts(rng, 300, testRegion)
	fm := broadcast.FaultModel{Loss: 0.05, Seed: 77}
	_, lossy := lossEnvPair(t, ptsS, ptsR, broadcast.IndexSpec{}, false, 0, 0, fm)
	ptsT := uniformPts(rng, 300, testRegion)
	_, third := lossEnvPair(t, ptsT, ptsT, broadcast.IndexSpec{}, false, 491, 0, fm.WithSeed(78))
	chainEnv := MultiEnv{Chs: []broadcast.Feed{lossy.ChS, lossy.ChR, third.ChS}, Region: testRegion}

	p := geom.Pt(500, 500)
	for _, c := range []struct {
		name string
		tags []string
		run  func(Options) Result
	}{
		{"window", []string{"S", "R"}, func(opt Options) Result { return run(lossy, AlgoWindow, p, opt) }},
		{"chain3", []string{"ch0", "ch1", "ch2"}, func(opt Options) Result { return RunChain(chainEnv, p, opt) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var events int64
			opt := Options{
				Issue: 10,
				TraceFault: func(ch string, slot int64) {
					if !slices.Contains(c.tags, ch) {
						t.Errorf("TraceFault channel tag %q, want one of %v", ch, c.tags)
					}
					events++
				},
			}
			res := c.run(opt)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if events == 0 {
				t.Fatal("no faults traced at 5% loss")
			}
			if events != res.Metrics.Lost {
				t.Fatalf("TraceFault fired %d times, Metrics.Lost = %d", events, res.Metrics.Lost)
			}
		})
	}
}

// TestLossEscalation: with a retry budget far below what the loss rate
// demands, queries must give up with a typed ChannelError instead of
// spinning forever, and the error must say which channel died.
func TestLossEscalation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ptsS := uniformPts(rng, 200, testRegion)
	ptsR := uniformPts(rng, 200, testRegion)
	_, lossy := lossEnvPair(t, ptsS, ptsR, broadcast.IndexSpec{}, false, 0, 0,
		broadcast.FaultModel{Loss: 0.95, Seed: 3})

	var escalated int
	for q := 0; q < 5; q++ {
		for _, algo := range []Algo{AlgoWindow, AlgoDouble, AlgoHybrid, AlgoApprox} {
			res := run(lossy, algo, geom.Pt(rand.New(rand.NewSource(int64(q))).Float64()*1000, 500),
				Options{Issue: int64(q) * 1000, MaxRetries: 2})
			if res.Err == nil {
				continue
			}
			escalated++
			var ce *broadcast.ChannelError
			if !errors.As(res.Err, &ce) {
				t.Fatalf("escalation error is %T, want *broadcast.ChannelError", res.Err)
			}
			if ce.Channel != "S" && ce.Channel != "R" {
				t.Fatalf("ChannelError.Channel = %q, want S or R", ce.Channel)
			}
			if ce.Attempts < 2 {
				t.Fatalf("ChannelError.Attempts = %d with MaxRetries 2", ce.Attempts)
			}
			var pf *broadcast.PageFault
			if !errors.As(res.Err, &pf) {
				t.Fatal("ChannelError does not unwrap to the last PageFault")
			}
		}
	}
	if escalated == 0 {
		t.Fatal("95% loss with MaxRetries=2 never escalated")
	}
}
