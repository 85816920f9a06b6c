package tnnbcast_test

// Query API v2 tests: golden v1≡v2 equivalence for every algorithm and
// variant across broadcast configurations, trace-event invariants, typed
// request failures, and a custom algorithm registered from this package
// (outside internal/) running end to end through Query, QueryBatch, and
// the tnnbench experiment path. CI runs this file under -race.

import (
	"errors"
	"reflect"
	"testing"

	"tnnbcast"
	"tnnbcast/internal/experiments"
)

// adaptiveSpec is a custom strategy composed from the built-ins: Window
// on the west half of the region, Double on the east half.
type adaptiveSpec struct{}

func (adaptiveSpec) Name() string { return "adaptive-test" }

func (adaptiveSpec) NewExecutor(env *tnnbcast.ExecEnv, p tnnbcast.Point) tnnbcast.Executor {
	algo := tnnbcast.Double
	if mid := (env.Region().Lo.X + env.Region().Hi.X) / 2; p.X < mid {
		algo = tnnbcast.Window
	}
	ex, err := env.Exec(p, algo)
	if err != nil {
		panic(err)
	}
	return ex
}

// proxySpec delegates every query to Double-NN — its metrics must be
// bit-identical to the built-in through every entry point.
type proxySpec struct{}

func (proxySpec) Name() string { return "proxy-double" }

func (proxySpec) NewExecutor(env *tnnbcast.ExecEnv, p tnnbcast.Point) tnnbcast.Executor {
	ex, err := env.Exec(p, tnnbcast.Double)
	if err != nil {
		panic(err)
	}
	return ex
}

var (
	adaptiveAlgo = tnnbcast.RegisterAlgorithm(adaptiveSpec{})
	proxyAlgo    = tnnbcast.RegisterAlgorithm(proxySpec{})
)

// v2Systems builds the broadcast configurations the equivalence suite
// runs on: the paper's preorder scheme, the distributed index, a skewed
// broadcast-disks schedule, and the single-channel environment.
func v2Systems(t *testing.T) map[string]*tnnbcast.System {
	t.Helper()
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(41, 3000, region)
	r := tnnbcast.UniformDataset(42, 3000, region)
	base := []tnnbcast.Option{tnnbcast.WithRegion(region), tnnbcast.WithPhases(12345, 67890)}
	out := make(map[string]*tnnbcast.System)
	for name, extra := range map[string][]tnnbcast.Option{
		"preorder":    nil,
		"distributed": {tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex)},
		"skewed":      {tnnbcast.WithSkewedSchedule(2, 2)},
		"single":      {tnnbcast.WithSingleChannel()},
	} {
		sys, err := tnnbcast.New(s, r, append(append([]tnnbcast.Option{}, base...), extra...)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = sys
	}
	return out
}

func sameResult(t *testing.T, label string, want, got tnnbcast.Result) {
	t.Helper()
	if want != got {
		t.Fatalf("%s: results differ:\n v1 %+v\n v2 %+v", label, want, got)
	}
}

// TestV2GoldenEquivalence checks that every execution path of the v2
// pipeline — Do, the step cursor, the event stream, and the shared-cycle
// batch — reproduces System.Query bit for bit, for all four algorithms on
// four broadcast configurations.
func TestV2GoldenEquivalence(t *testing.T) {
	algos := []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
	}
	q := tnnbcast.Pt(19500, 19500)
	for name, sys := range v2Systems(t) {
		var batch []tnnbcast.Request
		var want []tnnbcast.Result
		for _, algo := range algos {
			label := name + "/" + algo.String()
			v1 := sys.Query(q, algo)
			if !v1.Found {
				t.Fatalf("%s: no answer", label)
			}

			req := tnnbcast.Request{Point: q, Algo: algo}
			resp, err := sys.Do(req)
			if err != nil {
				t.Fatalf("%s: Do: %v", label, err)
			}
			sameResult(t, label+"/Do", v1, resp.Result)

			cur, err := sys.Start(req)
			if err != nil {
				t.Fatalf("%s: Start: %v", label, err)
			}
			for !cur.Done() {
				cur.Step()
			}
			sameResult(t, label+"/Cursor", v1, cur.Response().Result)

			cur, err = sys.Start(req)
			if err != nil {
				t.Fatalf("%s: Start: %v", label, err)
			}
			var answered *tnnbcast.Answer
			for ev := range cur.Events() {
				if a, ok := ev.(tnnbcast.Answer); ok {
					answered = &a
				}
			}
			if answered == nil {
				t.Fatalf("%s: event stream ended without Answer", label)
			}
			sameResult(t, label+"/Events", v1, answered.Response.Result)

			batch = append(batch, req)
			want = append(want, v1)
		}
		for i, resp := range mustBatch(t, sys, batch) {
			sameResult(t, name+"/QueryBatch", want[i], resp.Result)
		}
	}
}

// TestV2VariantEquivalence checks the unordered and round-trip wrappers
// against their Do requests, and that a TopK request needs K >= 1.
func TestV2VariantEquivalence(t *testing.T) {
	q := tnnbcast.Pt(12000, 26000)
	for name, sys := range v2Systems(t) {
		v1, first1 := sys.QueryUnordered(q)
		resp, err := sys.Do(tnnbcast.Request{Point: q, Variant: tnnbcast.Unordered})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, name+"/unordered", v1, resp.Result)
		if first1 != resp.SFirst {
			t.Fatalf("%s: unordered SFirst differs", name)
		}

		rt := sys.QueryRoundTrip(q)
		resp, err = sys.Do(tnnbcast.Request{Point: q, Variant: tnnbcast.RoundTrip})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, name+"/roundtrip", rt, resp.Result)

		if _, err := sys.Do(tnnbcast.Request{Point: q, Variant: tnnbcast.TopK}); err == nil {
			t.Fatalf("%s: TopK K=0 did not error", name)
		}
	}
}

// TestTraceInvariants checks the event stream against the metrics for
// every algorithm and variant: the PageDownloaded count equals the
// answer's tune-in, the estimate phase (when present) opens the stream,
// and RadiusSet matches the answer's radius. For the transitive query the
// pages before/after PhaseStart{filter} also equal the estimate/filter
// split, which only that query reports.
func TestTraceInvariants(t *testing.T) {
	var reqs []tnnbcast.Request
	for _, algo := range []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate, adaptiveAlgo,
	} {
		reqs = append(reqs, tnnbcast.Request{Algo: algo})
	}
	reqs = append(reqs,
		tnnbcast.Request{Variant: tnnbcast.Unordered},
		tnnbcast.Request{Variant: tnnbcast.RoundTrip},
		tnnbcast.Request{Variant: tnnbcast.TopK, K: 3})
	for name, sys := range v2Systems(t) {
		for _, req := range reqs {
			for _, q := range []tnnbcast.Point{
				tnnbcast.Pt(19500, 19500), tnnbcast.Pt(100, 38000), tnnbcast.Pt(30000, 5000),
			} {
				label := name + "/" + req.Algo.String()
				if req.Variant != tnnbcast.Transitive {
					label = name + "/" + req.Variant.String()
				}
				req.Point = q
				cur, err := sys.Start(req)
				if err != nil {
					t.Fatal(err)
				}
				var pages, estimatePages int64
				var radius *tnnbcast.RadiusSet
				var phases []tnnbcast.Phase
				inFilter := false
				var resp *tnnbcast.Response
				for ev := range cur.Events() {
					if resp != nil {
						t.Fatalf("%s: event after Answer", label)
					}
					switch e := ev.(type) {
					case tnnbcast.PageDownloaded:
						pages++
						if !inFilter {
							estimatePages++
						}
					case tnnbcast.PhaseStart:
						phases = append(phases, e.Phase)
						if e.Phase == tnnbcast.PhaseFilter {
							inFilter = true
						}
					case tnnbcast.RadiusSet:
						radius = &e
					case tnnbcast.Answer:
						r := e.Response
						resp = &r
					}
				}
				if resp == nil {
					t.Fatalf("%s: no Answer event", label)
				}
				res := resp.Result
				tuneIn, resRadius := res.TuneIn, res.Radius
				if req.Variant == tnnbcast.TopK {
					tuneIn, resRadius = resp.TopK.Metrics.TuneIn, resp.TopK.Radius
				}
				if pages != tuneIn {
					t.Fatalf("%s: %d PageDownloaded events, TuneIn %d", label, pages, tuneIn)
				}
				if req.Algo == adaptiveAlgo {
					// Custom executors stream pages and the answer; the
					// phase/radius observability is the built-ins'.
					continue
				}
				if req.Variant != tnnbcast.TopK {
					if estimatePages != res.EstimateTuneIn {
						t.Fatalf("%s: %d pages before filter, EstimateTuneIn %d",
							label, estimatePages, res.EstimateTuneIn)
					}
					if pages-estimatePages != res.FilterTuneIn {
						t.Fatalf("%s: %d pages after filter, FilterTuneIn %d",
							label, pages-estimatePages, res.FilterTuneIn)
					}
				}
				wantPhases := []tnnbcast.Phase{tnnbcast.PhaseEstimate, tnnbcast.PhaseFilter}
				if req.Variant == tnnbcast.Transitive && req.Algo == tnnbcast.Approximate {
					wantPhases = wantPhases[1:] // no estimate phase
				}
				if len(phases) != len(wantPhases) {
					t.Fatalf("%s: phases %v, want %v", label, phases, wantPhases)
				}
				for i := range phases {
					if phases[i] != wantPhases[i] {
						t.Fatalf("%s: phases %v, want %v", label, phases, wantPhases)
					}
				}
				if radius == nil || radius.Radius != resRadius {
					t.Fatalf("%s: RadiusSet %v does not match the answer's radius %g",
						label, radius, resRadius)
				}
			}
		}
	}
}

// TestCursorBudgetStop stops a query mid-flight on a tune-in budget and
// then resumes it: the final answer must match the uninterrupted run, for
// the transitive query and for a top-k variant.
func TestCursorBudgetStop(t *testing.T) {
	sys := v2Systems(t)["preorder"]
	q := tnnbcast.Pt(19500, 19500)
	for _, req := range []tnnbcast.Request{
		{Point: q, Algo: tnnbcast.Double},
		{Point: q, Variant: tnnbcast.TopK, K: 5},
	} {
		label := req.Variant.String()
		want, err := sys.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wantTuneIn := want.Result.TuneIn + want.TopK.Metrics.TuneIn // one of them is zero

		cur, err := sys.Start(req)
		if err != nil {
			t.Fatal(err)
		}
		pages := 0
		for ev := range cur.Events() {
			if _, ok := ev.(tnnbcast.PageDownloaded); ok {
				if pages++; pages >= 5 {
					break
				}
			}
		}
		if cur.Done() {
			t.Fatalf("%s: query finished within the budget; pick a smaller one", label)
		}
		if _, done := cur.Peek(); done {
			t.Fatalf("%s: Peek reports done on a stopped cursor", label)
		}
		seen := pages
		for ev := range cur.Events() { // resume
			if _, ok := ev.(tnnbcast.PageDownloaded); ok {
				seen++
			}
		}
		if !cur.Done() {
			t.Fatalf("%s: cursor not done after resumed Events", label)
		}
		if got := cur.Response(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: budget-resume answer differs:\n Do     %+v\n Cursor %+v", label, want, got)
		}
		if int64(seen) != wantTuneIn {
			t.Fatalf("%s: stop+resume saw %d pages, TuneIn %d", label, seen, wantTuneIn)
		}
	}
}

// TestUnknownAlgorithm checks the typed failures every Request entry
// point returns — an unknown algorithm (which once fell back to Double-NN
// silently), a TopK K < 1, and an undefined variant — and the panic of the
// error-less Query wrapper.
func TestUnknownAlgorithm(t *testing.T) {
	sys := v2Systems(t)["preorder"]
	q := tnnbcast.Pt(1000, 1000)
	bogus := tnnbcast.Algorithm(9999)

	entries := map[string]func(tnnbcast.Request) error{
		"Do": func(req tnnbcast.Request) error {
			_, err := sys.Do(req)
			return err
		},
		"Start": func(req tnnbcast.Request) error {
			_, err := sys.Start(req)
			return err
		},
		"QueryBatch": func(req tnnbcast.Request) error {
			// The invalid request second: the batch still fails as a whole.
			_, err := sys.QueryBatch([]tnnbcast.Request{{Point: q, Algo: tnnbcast.Double}, req})
			return err
		},
	}
	for _, tc := range []struct {
		name  string
		req   tnnbcast.Request
		check func(error) bool
	}{
		{"algorithm", tnnbcast.Request{Point: q, Algo: bogus}, func(err error) bool {
			var e *tnnbcast.UnknownAlgorithmError
			return errors.As(err, &e) && e.Algo == bogus
		}},
		{"topk", tnnbcast.Request{Point: q, Variant: tnnbcast.TopK, K: 0}, func(err error) bool {
			var e *tnnbcast.InvalidTopKError
			return errors.As(err, &e) && e.K == 0
		}},
		{"variant", tnnbcast.Request{Point: q, Variant: tnnbcast.Variant(9)}, func(err error) bool {
			var e *tnnbcast.UnknownVariantError
			return errors.As(err, &e) && e.Variant == 9
		}},
	} {
		for entry, run := range entries {
			if err := run(tc.req); !tc.check(err) {
				t.Errorf("%s/%s: got %v (%T), want the typed error", entry, tc.name, err, err)
			}
		}
	}

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("Query did not panic")
			} else if _, ok := r.(*tnnbcast.UnknownAlgorithmError); !ok {
				t.Fatalf("Query panicked with %v, want *UnknownAlgorithmError", r)
			}
		}()
		sys.Query(q, bogus)
	}()
	if _, err := experiments.AlgosByName([]string{"no-such-algorithm"}); err == nil {
		t.Fatal("AlgosByName accepted an unknown name")
	}
}

// TestCustomAlgorithmEndToEnd runs the strategies registered by this
// package (outside internal/) through Query, the session engine, and the
// tnnbench experiment harness, checking bit-identical delegation.
func TestCustomAlgorithmEndToEnd(t *testing.T) {
	sys := v2Systems(t)["preorder"]
	region := tnnbcast.PaperRegion

	// Resolution: by value and by (case-insensitive) name.
	if got := adaptiveAlgo.String(); got != "adaptive-test" {
		t.Fatalf("String() = %q", got)
	}
	if a, ok := tnnbcast.AlgorithmByName("Adaptive-Test"); !ok || a != adaptiveAlgo {
		t.Fatalf("AlgorithmByName = %v, %v", a, ok)
	}

	// Query: the adaptive strategy must reproduce the built-in it picks.
	points := []tnnbcast.Point{
		tnnbcast.Pt(2000, 19000),  // west -> Window
		tnnbcast.Pt(36000, 19000), // east -> Double
		tnnbcast.Pt(19500, 19500),
	}
	mid := (region.Lo.X + region.Hi.X) / 2
	var batch []tnnbcast.Request
	var want []tnnbcast.Result
	for _, p := range points {
		picked := tnnbcast.Double
		if p.X < mid {
			picked = tnnbcast.Window
		}
		exp := sys.Query(p, picked)
		sameResult(t, "custom/Query", exp, sys.Query(p, adaptiveAlgo))
		batch = append(batch, tnnbcast.Request{Point: p, Algo: adaptiveAlgo})
		want = append(want, exp)
		// Mix a built-in client into the same shared cycles.
		batch = append(batch, tnnbcast.Request{Point: p, Algo: tnnbcast.Hybrid})
		want = append(want, sys.Query(p, tnnbcast.Hybrid))
	}
	for i, resp := range mustBatch(t, sys, batch, tnnbcast.WithBatchWorkers(2)) {
		sameResult(t, "custom/QueryBatch", want[i], resp.Result)
	}

	// tnnbench path: Config.Algos resolves registered strategies; the pure
	// proxy must reproduce Double-NN's stats bit for bit.
	pair := experiments.Pairing{
		S:      tnnbcast.UniformDataset(7, 1200, region),
		R:      tnnbcast.UniformDataset(8, 1200, region),
		Region: region,
	}
	cfg := experiments.Config{Queries: 40, Seed: 99, Workers: 2}
	// AlgosByName is exactly what the experiment runners apply to
	// Config.Algos (tnnbench -algos).
	algos, err := experiments.AlgosByName([]string{"proxy-double", "double"})
	if err != nil {
		t.Fatal(err)
	}
	stats := experiments.RunPairing(pair, algos, cfg)
	if len(stats) != 2 {
		t.Fatalf("expected 2 algorithm stats, got %d", len(stats))
	}
	if stats["proxy-double"] != stats["Double-NN"] {
		t.Fatalf("proxy stats %+v differ from Double-NN %+v",
			stats["proxy-double"], stats["Double-NN"])
	}
	if stats["proxy-double"].MeanTuneIn <= 0 {
		t.Fatal("proxy ran no queries")
	}
	_ = proxyAlgo
}

// TestBatchWorkersNonPositive pins the satellite contract: any workers
// value <= 0 means GOMAXPROCS, and per-client Results are identical for
// every worker count, negative included.
func TestBatchWorkersNonPositive(t *testing.T) {
	sys := v2Systems(t)["preorder"]
	var queries []tnnbcast.Request
	for i, algo := range []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
	} {
		queries = append(queries, tnnbcast.Request{
			Point:   tnnbcast.Pt(float64(3000+8000*i), float64(30000-6000*i)),
			Algo:    algo,
			Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(int64(37 * i))},
		})
	}
	want := mustBatch(t, sys, queries, tnnbcast.WithBatchWorkers(1))
	for _, workers := range []int{-5, -1, 0, 2, 16} {
		got := mustBatch(t, sys, queries, tnnbcast.WithBatchWorkers(workers))
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("workers=%d: client %d result differs", workers, i)
			}
		}
	}
}
