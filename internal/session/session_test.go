package session

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

func makeEnv(t testing.TB, nS, nR int, offS, offR int64) core.Env {
	t.Helper()
	region := geom.RectOf(geom.Pt(0, 0), geom.Pt(1000, 1000))
	p := broadcast.DefaultParams()
	cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
	treeS := rtree.Build(dataset.Uniform(31, nS, region), cfg)
	treeR := rtree.Build(dataset.Uniform(32, nR, region), cfg)
	return core.Env{
		ChS:    broadcast.NewChannel(broadcast.BuildIndex(treeS, p, broadcast.IndexSpec{}), offS),
		ChR:    broadcast.NewChannel(broadcast.BuildIndex(treeR, p, broadcast.IndexSpec{}), offR),
		Region: region,
	}
}

// mustRun executes queries through a fresh engine, failing the test on a
// validation error.
func mustRun(t *testing.T, env core.Env, workers int, queries []Query) []core.Result {
	t.Helper()
	res, err := New(env, workers).Run(queries)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// mixedQueries builds a deterministic workload mixing all four algorithms,
// random issue slots, ANN options, and retrieval choices.
func mixedQueries(seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	algos := []core.Algo{core.AlgoWindow, core.AlgoDouble, core.AlgoHybrid, core.AlgoApprox}
	qs := make([]Query, n)
	for i := range qs {
		q := Query{
			Point: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Algo:  algos[rng.Intn(len(algos))],
		}
		q.Opt.Issue = rng.Int63n(5000)
		if rng.Intn(3) == 0 {
			q.Opt.ANN = core.UniformANN(core.FactorWindowDouble)
		}
		if rng.Intn(4) == 0 {
			q.Opt.SkipDataRetrieval = true
		}
		qs[i] = q
	}
	return qs
}

// run each query alone through core.Run — the sequential reference the
// session must match bit for bit.
func sequentialReference(env core.Env, queries []Query) []core.Result {
	sc := core.NewScratch()
	out := make([]core.Result, len(queries))
	for i, q := range queries {
		opt := q.Opt
		opt.Scratch = sc
		out[i], _ = core.Run(env, q.Algo, q.Point, opt)
	}
	return out
}

// TestSessionMatchesSequential: a shared-cycle session of mixed concurrent
// clients produces bit-identical per-client Results to running each query
// alone, for several worker counts.
func TestSessionMatchesSequential(t *testing.T) {
	env := makeEnv(t, 900, 700, 123, 4567)
	queries := mixedQueries(7, 120)
	want := sequentialReference(env, queries)

	for _, workers := range []int{1, 2, 3, 8, 0} {
		got := mustRun(t, env, workers, queries)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("workers=%d client %d (%v): session %+v\nsequential %+v",
						workers, i, queries[i].Algo, got[i], want[i])
				}
			}
			t.Fatalf("workers=%d: results diverge", workers)
		}
	}
}

// TestSessionEmptyAndDegenerate: sessions over empty datasets and empty
// batches complete without panicking and report Found=false.
func TestSessionEmptyAndDegenerate(t *testing.T) {
	if got := mustRun(t, makeEnv(t, 50, 50, 0, 0), 1, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}

	env := makeEnv(t, 0, 0, 0, 0)
	queries := mixedQueries(9, 16)
	res := mustRun(t, env, 2, queries)
	for i, r := range res {
		if r.Found {
			t.Fatalf("client %d found an answer on empty datasets: %+v", i, r)
		}
	}
	if !reflect.DeepEqual(res, sequentialReference(env, queries)) {
		t.Fatal("empty-dataset session diverges from sequential reference")
	}

	// One-sided empty dataset: estimate phases fail or filter finds no
	// pair, but nothing panics and metrics stay consistent.
	env = makeEnv(t, 0, 300, 11, 22)
	queries = mixedQueries(10, 16)
	res = mustRun(t, env, 1, queries)
	for i, r := range res {
		if r.Found {
			t.Fatalf("client %d found a pair with S empty: %+v", i, r)
		}
	}
	if !reflect.DeepEqual(res, sequentialReference(env, queries)) {
		t.Fatal("one-sided-empty session diverges from sequential reference")
	}
}

// TestSessionSharedCycleOverlap pins the scalability story: all clients of
// one session live on the SAME broadcast cycles, so the slot span the
// whole batch occupies is far smaller than the sum of the individual
// access times (which is what a single client running the queries
// back-to-back would need).
func TestSessionSharedCycleOverlap(t *testing.T) {
	env := makeEnv(t, 900, 700, 123, 4567)
	queries := mixedQueries(11, 64)
	cycle := env.ChS.Index().CycleLen() // issue slots were drawn below this
	res := mustRun(t, env, 1, queries)

	var sum, maxEnd int64
	for i, r := range res {
		sum += r.Metrics.AccessTime
		if end := queries[i].Opt.Issue + r.Metrics.AccessTime; end > maxEnd {
			maxEnd = end
		}
	}
	if sum < 2*(maxEnd+cycle) {
		t.Fatalf("expected heavy overlap: summed access %d vs batch span bound %d",
			sum, maxEnd+cycle)
	}
}

// TestNonPositiveWorkers pins the contract that any workers value <= 0
// selects GOMAXPROCS: negative counts must behave exactly like 0 and
// produce the same per-client Results as the sequential loop.
func TestNonPositiveWorkers(t *testing.T) {
	env := makeEnv(t, 700, 700, 11, 29)
	queries := mixedQueries(6, 24)
	want := mustRun(t, env, 1, queries)
	for _, workers := range []int{-8, -1, 0} {
		got := mustRun(t, env, workers, queries)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: client %d result differs", workers, i)
			}
		}
	}
}

// TestRunStreamMatchesRun: the streaming entry point must produce the
// same per-client Results as Run and as the sequential reference, report
// sane Stats, and — with one worker — emit in stream order.
func TestRunStreamMatchesRun(t *testing.T) {
	env := makeEnv(t, 900, 700, 123, 4567)
	queries := mixedQueries(21, 300)
	// Sort by issue slot: a live arrival process, the shape RunStream's
	// bounded-memory guarantee is about.
	sort.SliceStable(queries, func(i, j int) bool {
		return queries[i].Opt.Issue < queries[j].Opt.Issue
	})
	want := sequentialReference(env, queries)

	for _, workers := range []int{1, 3} {
		got := make([]core.Result, len(queries))
		seen := make([]bool, len(queries))
		next := 0 // the stream position a single worker must emit next
		var mu sync.Mutex
		stats, err := New(env, workers).RunStream(slices.Values(queries),
			func(i int, r core.Result) {
				mu.Lock()
				defer mu.Unlock()
				if seen[i] {
					t.Errorf("client %d emitted twice", i)
				}
				if workers == 1 {
					if i != next {
						t.Errorf("workers=1: emitted client %d, want %d (stream order)", i, next)
					}
					next++
				}
				seen[i] = true
				got[i] = r
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: streamed results diverge from sequential reference", workers)
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("workers=%d: client %d never emitted", workers, i)
			}
		}
		if stats.Clients != len(queries) {
			t.Fatalf("workers=%d: Stats.Clients = %d, want %d", workers, stats.Clients, len(queries))
		}
		if stats.Steps <= int64(len(queries)) {
			t.Fatalf("workers=%d: implausible Stats.Steps = %d", workers, stats.Steps)
		}
		if stats.PeakLive < 1 || stats.PeakLive > workers {
			t.Fatalf("workers=%d: implausible Stats.PeakLive = %d", workers, stats.PeakLive)
		}
	}
}

// TestStreamingPeakTracksConcurrency pins the bounded-memory property:
// the engine's peak live count must be a small fraction of the total
// client count (a worker holds one client at a time; an engine that held
// all N alive until the end would fail).
func TestStreamingPeakTracksConcurrency(t *testing.T) {
	env := makeEnv(t, 900, 700, 123, 4567)
	// Mean spacing ~ one access time: concurrency stays O(10) while the
	// total is 400.
	rng := rand.New(rand.NewSource(31))
	algos := []core.Algo{core.AlgoWindow, core.AlgoDouble, core.AlgoHybrid, core.AlgoApprox}
	const n = 400
	queries := make([]Query, n)
	issue := int64(0)
	for i := range queries {
		queries[i] = Query{
			Point: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			Algo:  algos[i%len(algos)],
		}
		issue += rng.Int63n(40001) // mean 20k slots between arrivals
		queries[i].Opt.Issue = issue
	}
	stats, err := New(env, 1).RunStream(slices.Values(queries), func(int, core.Result) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakLive >= n/4 {
		t.Fatalf("peak live clients = %d out of %d: execution state is not recycled", stats.PeakLive, n)
	}
}

// TestNegativeIssueRejected: the validation story for issue slots — a
// typed *InvalidIssueError identifying the offending client, no panic, no
// further clients taken, clients taken before it still emitted.
func TestNegativeIssueRejected(t *testing.T) {
	env := makeEnv(t, 200, 200, 3, 5)
	queries := mixedQueries(5, 8)
	sort.SliceStable(queries, func(i, j int) bool {
		return queries[i].Opt.Issue < queries[j].Opt.Issue
	})
	queries[5].Opt.Issue = -7

	if _, err := New(env, 1).Run(queries); err == nil {
		t.Fatal("Run accepted a negative issue slot")
	} else {
		var iss *InvalidIssueError
		if !errors.As(err, &iss) {
			t.Fatalf("error %T is not *InvalidIssueError", err)
		}
		if iss.Client != 5 || iss.Issue != -7 {
			t.Fatalf("error identifies client %d issue %d, want 5/-7", iss.Client, iss.Issue)
		}
	}

	// Streaming: the poisoned stream stops further clients but completes
	// and emits every client taken before the bad one.
	emitted := 0
	_, err := New(env, 1).RunStream(slices.Values(queries), func(int, core.Result) { emitted++ })
	if err == nil {
		t.Fatal("RunStream accepted a negative issue slot")
	}
	if emitted != 5 {
		t.Fatalf("emitted %d clients, want the 5 taken before the invalid one", emitted)
	}
}

// sessionProbeExec wraps a built-in execution to stand in for a custom
// registered strategy: the engine cannot pool it as a QueryExec, so this
// exercises the factory path, which borrows the worker's scratch.
type sessionProbeExec struct{ core.Executor }

// The algorithm registry is process-global and rejects duplicate names,
// so the probe strategies are registered once per process and reused by
// every run of the test (go test -count=N).
var (
	probeOnce           sync.Once
	probeAlgo, bareAlgo core.Algo
	probeErr            error
)

// registerProbes registers the two probe strategies TestSessionCustomAlgorithm
// runs: a wrapper executor and a bare proxy for Double-NN.
func registerProbes() (probe, bare core.Algo, err error) {
	probeOnce.Do(func() {
		probeAlgo, probeErr = core.Register(core.AlgoSpec{
			Name:  "session-probe-double",
			Alias: "spd",
			New: func(env core.Env, p geom.Point, opt core.Options) core.Executor {
				ex, _ := core.NewExec(env, core.AlgoDouble, p, opt)
				return &sessionProbeExec{ex}
			},
		})
		if probeErr != nil {
			return
		}
		bareAlgo, probeErr = core.Register(core.AlgoSpec{
			Name:  "session-probe-bare",
			Alias: "spb",
			New: func(env core.Env, p geom.Point, opt core.Options) core.Executor {
				ex, _ := core.NewExec(env, core.AlgoDouble, p, opt)
				return ex // a bare *core.QueryExec, not wrapped
			},
		})
	})
	return probeAlgo, bareAlgo, probeErr
}

// TestSessionCustomAlgorithm: registered strategies run alongside
// built-ins on the shared timeline and match their sequential execution.
// Two custom shapes run: a wrapper executor (the engine cannot pool it)
// and a bare proxy whose factory returns a builtin *QueryExec directly —
// taken down the custom path although it is the pooled executor type.
func TestSessionCustomAlgorithm(t *testing.T) {
	probe, bare, err := registerProbes()
	if err != nil {
		t.Fatal(err)
	}
	env := makeEnv(t, 500, 400, 17, 19)
	queries := mixedQueries(13, 60)
	for i := range queries {
		switch i % 3 {
		case 0:
			queries[i].Algo = probe
		case 1:
			queries[i].Algo = bare
		}
	}
	want := make([]core.Result, len(queries))
	sc := core.NewScratch()
	for i, q := range queries {
		opt := q.Opt
		opt.Scratch = sc
		algo := q.Algo
		if algo == probe || algo == bare {
			algo = core.AlgoDouble
		}
		res, ok := core.Run(env, algo, q.Point, opt)
		if !ok {
			t.Fatalf("client %d: algorithm %d not registered", i, q.Algo)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 4} {
		got := mustRun(t, env, workers, queries)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: custom-strategy session diverges from sequential", workers)
		}
	}
}
