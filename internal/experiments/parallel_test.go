package experiments

import "testing"

// The parallel harness must be an observationally invisible optimization:
// for a fixed Config.Seed, every worker count — including the strictly
// sequential 1 — must report bit-identical Stats. The pre-drawn randomness
// and the query-order reduction are what guarantee it; this test is the
// contract.
func TestRunPairingWorkerCountInvariance(t *testing.T) {
	p := uniformPair(5, 800, 600)
	p.Name = "parallel"
	cfg := smallCfg()
	cfg.Verify = true

	cfg.Workers = 1
	seq := RunPairing(p, ExactAlgos(), cfg)

	for _, w := range []int{2, 3, 8, 64} {
		cfg.Workers = w
		got := RunPairing(p, ExactAlgos(), cfg)
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: %d algorithms, want %d", w, len(got), len(seq))
		}
		for name, want := range seq {
			if got[name] != want {
				t.Errorf("workers=%d: %s stats diverge from sequential:\n got %+v\nwant %+v",
					w, name, got[name], want)
			}
		}
	}
}

// Worker counts beyond the query count (and the GOMAXPROCS default) must
// also reproduce the sequential numbers on a tiny workload, where claim
// races between workers are most likely to surface ordering bugs.
func TestRunPairingTinyWorkloadParallel(t *testing.T) {
	p := uniformPair(9, 300, 300)
	p.Name = "tiny"
	cfg := Config{Queries: 3, Seed: 21, Workers: 1}
	seq := RunPairing(p, ExactAlgos(), cfg)

	cfg.Workers = 16 // more workers than queries
	got := RunPairing(p, ExactAlgos(), cfg)
	for name, want := range seq {
		if got[name] != want {
			t.Errorf("%s: %+v != sequential %+v", name, got[name], want)
		}
	}

	cfg.Workers = 0 // GOMAXPROCS default
	got = RunPairing(p, ExactAlgos(), cfg)
	for name, want := range seq {
		if got[name] != want {
			t.Errorf("workers=0: %s: %+v != sequential %+v", name, got[name], want)
		}
	}
}
