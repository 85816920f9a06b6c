package session

// Session-engine scale guards. The workload is a live population whose
// clients ARRIVE over time (sorted issue slots, mean spacing 100 slots —
// roughly a thousand clients overlapping on the timeline), mixing all
// four algorithms. steps/s is the execution-step throughput
// BenchmarkSessionSteps guards at N=10k; BenchmarkSession100k guards the
// bounded-memory story — with run-to-completion workers and scratch reuse
// its B/op divided by 100k clients must stay far below the ~17 KB/client
// the admit-everything engine burned.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
)

// benchWorkload builds n clients with sorted arrivals, mean spacing 100
// slots, mixing the four algorithms round-robin.
func benchWorkload(n int) []Query {
	rng := rand.New(rand.NewSource(13))
	algos := []core.Algo{core.AlgoWindow, core.AlgoDouble, core.AlgoHybrid, core.AlgoApprox}
	qs := make([]Query, n)
	issue := int64(0)
	for i := range qs {
		qs[i] = Query{
			Point: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Algo:  algos[i%len(algos)],
		}
		issue += rng.Int63n(201)
		qs[i].Opt.Issue = issue
	}
	return qs
}

func benchSession(b *testing.B, n int) {
	env := makeEnv(b, 5000, 5000, 7919, 104729)
	queries := benchWorkload(n)
	b.ReportAllocs()
	b.ResetTimer()
	var steps, clients int64
	var peakLive int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		stats, err := New(env, 1).RunStream(slices.Values(queries), func(int, core.Result) {})
		if err != nil {
			b.Fatal(err)
		}
		steps += stats.Steps
		clients += int64(stats.Clients)
		peakLive = stats.PeakLive
	}
	elapsed := time.Since(start).Seconds()
	b.ReportMetric(float64(steps)/elapsed, "steps/s")
	b.ReportMetric(float64(clients)/elapsed, "clients/s")
	b.ReportMetric(float64(peakLive), "peak-live")
}

// BenchmarkSessionSteps is the throughput guard at N=10k streamed
// clients.
func BenchmarkSessionSteps(b *testing.B) { benchSession(b, 10_000) }

// BenchmarkSession100k is the memory guard: B/op over 100k streamed
// clients. The admit-everything engine held ~17 KB/client; reusing one
// execution state per worker must stay an order of magnitude under.
func BenchmarkSession100k(b *testing.B) { benchSession(b, 100_000) }

// TestSessionSteadyStateAllocs is the session analogue of core's
// TestQuerySteadyStateAllocs: with one reused execution state and scratch
// per worker, the engine's allocations per client STEP must stay near
// zero — each run allocates its workers and their feed wrappers once,
// amortized over hundreds of thousands of steps. A regression here means
// the scratch reuse or a feed wrapper started allocating on the hot path.
func TestSessionSteadyStateAllocs(t *testing.T) {
	env := makeEnv(t, 1500, 1500, 7919, 104729)
	queries := benchWorkload(2000)
	eng := New(env, 1)
	var steps int64
	run := func() {
		stats, err := eng.RunStream(slices.Values(queries), func(int, core.Result) {})
		if err != nil {
			t.Fatal(err)
		}
		steps = stats.Steps
	}
	allocs := testing.AllocsPerRun(1, run)
	if steps == 0 {
		t.Fatal("no steps recorded")
	}
	perStep := allocs / float64(steps)
	// The budget is deliberately tight: the observed steady state is
	// ~0.01 allocs/step (workers, feed wrappers, scratch growth — all
	// O(workers), not O(steps)).
	const budget = 0.05
	if perStep > budget {
		t.Errorf("%.0f allocs over %d steps = %.4f allocs/step, budget %.2f",
			allocs, steps, perStep, budget)
	}
}
