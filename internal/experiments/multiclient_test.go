package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"tnnbcast/internal/core"
)

// TestMultiClientBatchMatchesSequential: the experiment's two measured
// paths — the sequential Query loop and the shared-cycle session — must
// produce bit-identical per-client results, or the throughput comparison
// compares different work.
func TestMultiClientBatchMatchesSequential(t *testing.T) {
	cfg := Config{Seed: 99, Queries: 1}.Defaults()
	p := uniformPair(cfg.Seed, 800, 600)
	air := pairAir(p, cfg, false)
	rng := rand.New(rand.NewSource(cfg.Seed))
	air.Rephase([2]int64{rng.Int63n(air.CycleLen(0)), rng.Int63n(air.CycleLen(1))})
	env := core.Env{ChS: air.Feeds[0], ChR: air.Feeds[1], Region: p.Region}

	w := multiClientWorkload(rng.Int63(), p, air.CycleLen(0), 60, 0)
	run := runMultiClient(env, w, 2, true)
	if !reflect.DeepEqual(run.seqResults, run.batchResults) {
		t.Fatal("session results diverge from the sequential loop")
	}
	if run.stats.Steps <= int64(run.n) || run.stats.Clients != run.n {
		t.Fatalf("implausible engine stats: %+v", run.stats)
	}

	// Windowed arrival workload: same equivalence, bounded concurrency.
	ws := multiClientWorkload(rng.Int63(), p, air.CycleLen(0), 60, 40)
	runW := runMultiClient(env, ws, 2, true)
	if !reflect.DeepEqual(runW.seqResults, runW.batchResults) {
		t.Fatal("windowed session results diverge from the sequential loop")
	}
	for i := 1; i < len(ws.issues); i++ {
		if ws.issues[i] < ws.issues[i-1] {
			t.Fatal("windowed workload issues not sorted")
		}
	}
	if run.batchSlots <= 0 || run.seqSlots <= run.batchSlots {
		t.Fatalf("air-time accounting implausible: seq %d slots, batch %d slots",
			run.seqSlots, run.batchSlots)
	}
}

// TestMultiClientTable: the registered "clients" runner produces the
// expected shape and sane aggregate values on a small ladder.
func TestMultiClientTable(t *testing.T) {
	tab := MultiClient(Config{Seed: 7, Clients: []int{24, 48}})
	if tab.ID != "clients" || len(tab.Rows) != 2 {
		t.Fatalf("table shape: id=%q rows=%d", tab.ID, len(tab.Rows))
	}
	if len(tab.Columns) != 15 {
		t.Fatalf("expected 15 columns, got %d", len(tab.Columns))
	}
	for _, row := range tab.Rows {
		for j := 0; j < 8; j++ { // AT/TI aggregates must be positive
			if row.Values[j] <= 0 {
				t.Fatalf("row %s: aggregate column %d is %v", row.X, j, row.Values[j])
			}
		}
		airX := row.Values[11]
		if airX < 2 { // the whole point of sharing cycles
			t.Fatalf("row %s: air-throughput speedup %.2f < 2", row.X, airX)
		}
	}
	// Registered and part of the canonical ordering.
	if _, ok := Registry["clients"]; !ok {
		t.Fatal("\"clients\" not registered")
	}
	found := false
	for _, id := range Order {
		if id == "clients" {
			found = true
		}
	}
	if !found {
		t.Fatal("\"clients\" missing from Order")
	}
}
