package experiments

import "testing"

// extraAllocsPerQuery measures what one more query costs a harness run in
// heap allocations: the difference between a long and a short run of the
// same workload, per extra query. Setup (datasets, trees, air) costs the
// same in both runs and cancels.
func extraAllocsPerQuery(run func(queries int)) float64 {
	const short, long = 10, 210
	a := testing.AllocsPerRun(1, func() { run(short) })
	b := testing.AllocsPerRun(1, func() { run(long) })
	return (b - a) / (long - short)
}

// TestHarnessPerQueryAllocs pins the harness's per-query cost at zero
// allocations: each worker rephases its own copy of the air instead of
// building channels per query. The budget's slack absorbs the scratch
// buffers' first-touch growth, a handful of allocations per run.
func TestHarnessPerQueryAllocs(t *testing.T) {
	const budget = 0.1
	pair := uniformPair(41, 2000, 2000)
	cases := []struct {
		name string
		run  func(queries int)
	}{
		{"RunPairing", func(q int) {
			RunPairing(pair, ExactAlgos(), Config{Queries: q, Seed: 5, Workers: 1})
		}},
		{"SingleVsMultiChannel", func(q int) {
			SingleVsMultiChannel(Config{Queries: q, Seed: 5, Workers: 1})
		}},
	}
	for _, c := range cases {
		if got := extraAllocsPerQuery(c.run); got > budget {
			t.Errorf("%s: %.2f allocations per extra query, budget %.1f", c.name, got, budget)
		}
	}
}
