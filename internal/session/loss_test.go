package session

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// makeLossyEnv builds an environment whose feeds inject the seeded fault
// model, wired exactly like the public API: dedicated channels get
// per-channel derived seeds, both shares of a multiplexed channel take
// one physical-channel seed.
func makeLossyEnv(t testing.TB, spec broadcast.IndexSpec, dual bool, fm broadcast.FaultModel) core.Env {
	t.Helper()
	region := geom.RectOf(geom.Pt(0, 0), geom.Pt(1000, 1000))
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	idxS := broadcast.BuildIndex(rtree.Build(dataset.Uniform(31, 600, region), cfg), p, spec)
	idxR := broadcast.BuildIndex(rtree.Build(dataset.Uniform(32, 500, region), cfg), p, spec)
	if dual {
		s, r := broadcast.Multiplex(idxS, idxR, 3)
		phys := fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 0))
		return core.Env{
			ChS:    broadcast.NewFaultFeed(s, phys),
			ChR:    broadcast.NewFaultFeed(r, phys),
			Region: region,
		}
	}
	return core.Env{
		ChS: broadcast.NewFaultFeed(broadcast.NewChannel(idxS, 3),
			fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 0))),
		ChR: broadcast.NewFaultFeed(broadcast.NewChannel(idxR, 811),
			fm.WithSeed(broadcast.DeriveFaultSeed(fm.Seed, 1))),
		Region: region,
	}
}

// TestSessionLossWorkerInvariance: with faults on the shared medium, the
// same fault seed and dataset must produce bit-identical per-client
// Results and Stats (PeakLive excepted — it counts the workers that ran a
// client) across workers = 1, 4, 16, for both index families and the
// multiplexed layout. Faults are a pure function of (seed, slot), so no
// worker count may see a different air.
func TestSessionLossWorkerInvariance(t *testing.T) {
	fm := broadcast.FaultModel{Loss: 0.02, Burst: 4, Corrupt: 0.005, Seed: 67}
	layouts := []struct {
		name string
		spec broadcast.IndexSpec
		dual bool
	}{
		{"preorder", broadcast.IndexSpec{}, false},
		{"distributed", broadcast.IndexSpec{Scheme: broadcast.SchemeDistributed}, false},
		{"dualchannel", broadcast.IndexSpec{}, true},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			env := makeLossyEnv(t, lay.spec, lay.dual, fm)
			queries := mixedQueries(45, 120)

			var wantRes []core.Result
			var wantStats Stats
			for _, workers := range []int{1, 4, 16} {
				var mu sync.Mutex // emit runs concurrently with workers > 1
				var got []core.Result
				stats, err := New(env, workers).RunStream(
					func(yield func(Query) bool) {
						for _, q := range queries {
							if !yield(q) {
								return
							}
						}
					},
					func(client int, res core.Result) {
						mu.Lock()
						defer mu.Unlock()
						for len(got) <= client {
							got = append(got, core.Result{})
						}
						got[client] = res
					},
				)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if stats.Failed != 0 {
					t.Fatalf("workers=%d: %d clients escalated at 2%% loss", workers, stats.Failed)
				}
				if stats.Lost == 0 || stats.RecoverySlots == 0 {
					t.Fatalf("workers=%d: no faults recorded (lost=%d recovery=%d) — nothing tested",
						workers, stats.Lost, stats.RecoverySlots)
				}
				stats.PeakLive = 0
				if wantRes == nil {
					wantRes, wantStats = got, stats
					continue
				}
				if stats != wantStats {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
				}
				for i := range wantRes {
					if !reflect.DeepEqual(got[i], wantRes[i]) {
						t.Fatalf("workers=%d: client %d diverged:\n  %+v\n  %+v",
							workers, i, got[i], wantRes[i])
					}
				}
			}

			// The session must also match the single-client reference on
			// the identical lossy feeds: the engine's shared per-worker
			// MemoFeed may never change what any client receives.
			ref := sequentialReference(env, queries)
			for i := range ref {
				if !reflect.DeepEqual(wantRes[i], ref[i]) {
					t.Fatalf("client %d: session diverged from single-client reference:\n  %+v\n  %+v",
						i, wantRes[i], ref[i])
				}
			}
		})
	}
}

// TestSessionLossEscalationCounted: clients that exhaust a tiny retry
// budget under heavy loss must surface their ChannelError in the
// per-client Result and be counted once in Stats.Failed, identically for
// every worker count.
func TestSessionLossEscalationCounted(t *testing.T) {
	env := makeLossyEnv(t, broadcast.IndexSpec{}, false,
		broadcast.FaultModel{Loss: 0.9, Seed: 5})
	queries := mixedQueries(9, 40)
	for i := range queries {
		queries[i].Opt.MaxRetries = 2
	}

	var wantFailed int
	for _, workers := range []int{1, 4, 16} {
		res, err := New(env, workers).Run(queries)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		failed := 0
		for _, r := range res {
			if r.Err != nil {
				failed++
				var ce *broadcast.ChannelError
				if !errors.As(r.Err, &ce) {
					t.Fatalf("workers=%d: Err is %T, want *broadcast.ChannelError", workers, r.Err)
				}
			}
		}
		if failed == 0 {
			t.Fatalf("workers=%d: 90%% loss with MaxRetries=2 never escalated", workers)
		}
		if workers == 1 {
			wantFailed = failed
		} else if failed != wantFailed {
			t.Fatalf("workers=%d: %d failures, workers=1 saw %d", workers, failed, wantFailed)
		}
	}
}
