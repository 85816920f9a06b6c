package experiments

// The multi-client scaling experiment: the paper's broadcast model exists
// so that ONE transmission serves arbitrarily many listeners, and the
// ROADMAP's north star is "heavy traffic from millions of users". This
// runner puts N concurrent clients — a mix of all four algorithms, each
// with its own query point and issue slot — on one shared pair of channel
// feeds via the session engine, and compares against the sequential
// baseline of N independent Query calls.
//
// Two throughput notions are reported, and they must not be conflated:
//
//   - Air throughput (the paper's): queries completed per broadcast slot.
//     The batch overlaps all clients on the same cycles, so the batch
//     occupies max(issue+access) − min(issue) slots of air time, while a
//     lone client running the same queries back-to-back occupies the SUM
//     of the access times. This ratio grows roughly linearly with N — the
//     broadcast scalability argument itself.
//
//   - Wall-clock throughput (simulator speed): queries simulated per
//     second. Clients are independent, so the session fans them across
//     cfg.Workers CPUs; the sequential loop cannot.
//
// Workload shapes. With Config.Window == 0 every client's issue slot is
// an independent uniform draw over one S cycle — the original experiment,
// where the entire population is concurrently live. With Window = w > 0
// the clients ARRIVE over w cycles (sorted issue slots with uniformly
// random gaps): a live population whose concurrency is set by arrival
// rate × per-client lifetime, not by N. The second shape is a live
// arrival process — a million arriving clients is an evening of traffic.
// Either shape runs at any N: the session workers run each client to
// completion, so the engine holds one client per worker however many
// overlap on the timeline.
//
// At every ladder point the batch results are checksummed (a
// position-tagged FNV fold, order-independent); with Config.VerifyWorkers
// the whole batch is re-run with workers=1 and the checksums must match —
// the worker-count-invariance guarantee at scales where storing two
// result sets for DeepEqual would dwarf the engine's own footprint.

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/observe"
	"tnnbcast/internal/session"
)

// defaultClientCounts is the N ladder when Config.Clients is unset.
var defaultClientCounts = []int{100, 1000, 4000}

// SeqBaselineCap is the largest N for which the sequential wall-clock
// baseline runs (and results are materialized for the batch≡sequential
// DeepEqual). Above it the air-time baseline is still exact — the summed
// access times come from the batch's own per-client results, which are
// bit-identical to sequential execution — but the redundant O(N) replay
// and the two result arrays are skipped.
const SeqBaselineCap = 100_000

// clientAlgos is the per-client algorithm rotation.
var clientAlgos = [4]core.Algo{core.AlgoWindow, core.AlgoDouble, core.AlgoHybrid, core.AlgoApprox}

// clientWorkload is one generated multi-client workload: a deterministic
// query stream plus the issue slots recorded at generation time (the
// emit-side aggregation needs them to compute batch air-time span).
type clientWorkload struct {
	n      int
	issues []int64
	gen    func() iter.Seq[session.Query]
}

// multiClientWorkload draws N clients over the pairing: uniform query
// points, algorithms round-robin by client index, and issue slots per the
// configured shape — independent uniform draws over one S cycle of cycle
// slots when window == 0 (every client concurrently live), or sorted
// arrivals spread over window cycles (a live population).
func multiClientWorkload(seed int64, p Pairing, cycle int64, n int, window float64) clientWorkload {
	w := clientWorkload{n: n, issues: make([]int64, n)}
	w.gen = func() iter.Seq[session.Query] {
		return func(yield func(session.Query) bool) {
			rng := rand.New(rand.NewSource(seed))
			issue := int64(0)
			// Mean inter-arrival gap; +1 keeps Int63n legal for tiny windows.
			gap := int64(0)
			if window > 0 {
				gap = int64(window*float64(cycle))/int64(n) + 1
			}
			for i := 0; i < n; i++ {
				x := p.Region.Lo.X + rng.Float64()*p.Region.Width()
				y := p.Region.Lo.Y + rng.Float64()*p.Region.Height()
				q := session.Query{
					Point: geom.Pt(x, y),
					Algo:  clientAlgos[i%len(clientAlgos)],
				}
				if window > 0 {
					issue += rng.Int63n(2 * gap) // sorted arrival process
					q.Opt.Issue = issue
				} else {
					q.Opt.Issue = rng.Int63n(cycle)
				}
				w.issues[i] = q.Opt.Issue
				if !yield(q) {
					return
				}
			}
		}
	}
	return w
}

// materialize collects the stream into a slice (sequential baseline and
// small-N DeepEqual only).
func (w clientWorkload) materialize() []session.Query {
	qs := make([]session.Query, 0, w.n)
	for q := range w.gen() {
		qs = append(qs, q)
	}
	return qs
}

// multiClientRun holds one ladder point's measurements.
type multiClientRun struct {
	n                        int
	seqResults, batchResults []core.Result // nil above SeqBaselineCap
	seqSecs, batchSecs       float64
	seqSlots                 int64 // air slots a lone back-to-back client needs
	batchSlots               int64 // air slots the overlapped batch spans
	at, ti                   [4]float64
	cnt                      [4]int
	stats                    session.Stats
	peakHeap                 uint64 // max sampled heap during the batch run
	checksum                 uint64
}

// resultHash folds one client's Result into a position-tagged FNV-1a-64
// word; XOR-combining the words gives an order-independent batch
// checksum that still pins every field of every client. The fold is
// inlined (no hash.Hash allocation) because it runs once per client
// under the emit mutex, inside the timed batch section.
func resultHash(i int, r core.Result) uint64 {
	found := uint64(0)
	if r.Found {
		found = 1
	}
	if r.Err != nil {
		found |= 2 // channel escalation is part of the pinned outcome
	}
	words := [13]uint64{
		uint64(i),
		uint64(r.Metrics.AccessTime),
		uint64(r.Metrics.TuneIn),
		uint64(r.EstimateTuneIn),
		uint64(r.FilterTuneIn),
		math.Float64bits(r.Radius),
		math.Float64bits(r.Pair.Dist),
		uint64(r.Pair.S.ID)<<32 | uint64(uint32(r.Pair.R.ID)),
		uint64(r.Case),
		found,
		uint64(r.Metrics.Lost),
		uint64(r.Metrics.Retries),
		uint64(r.Metrics.RecoverySlots),
	}
	return FoldWords(FNVOffset, words[:])
}

// FNVOffset is the FNV-1a-64 offset basis, the start of a FoldWords chain.
const FNVOffset uint64 = 14695981039346656037

// FoldWords folds each word into the FNV-1a-64 state h as eight
// little-endian bytes. resultHash pins a client's Result with it, and the
// root package's variant digest test pins the Section-7 queries with it.
func FoldWords(h uint64, words []uint64) uint64 {
	const prime64 = 1099511628211
	for _, w := range words {
		for b := 0; b < 8; b++ {
			h = (h ^ (w & 0xff)) * prime64
			w >>= 8
		}
	}
	return h
}

// runMultiClient executes one ladder point: the sequential baseline (one
// Query per client, one recycled scratch — exactly the pre-session usage
// pattern; skipped above SeqBaselineCap) and the shared-cycle streaming
// batch, over identical workloads. verify re-runs the batch with
// workers=1 and panics if any per-client Result bit differs.
func runMultiClient(env core.Env, w clientWorkload, workers int, verify bool) multiClientRun {
	r := multiClientRun{n: w.n}

	// Sequential loop: N independent executions, recycled scratch.
	if w.n <= SeqBaselineCap {
		queries := w.materialize()
		sc := core.NewScratch()
		r.seqResults = make([]core.Result, len(queries))
		elapsed := observe.Stopwatch()
		for i, q := range queries {
			opt := q.Opt
			opt.Scratch = sc
			res, ok := core.Run(env, q.Algo, q.Point, opt)
			if !ok {
				panic(fmt.Sprintf("experiments: unregistered algorithm %d", q.Algo))
			}
			r.seqResults[i] = res
		}
		r.seqSecs = elapsed().Seconds()
		QueriesExecuted.Add(int64(len(queries)))
		QueryNanos.Add(int64(r.seqSecs * 1e9))
	}

	// Shared-cycle streaming batch over the same feeds. record folds the
	// per-algorithm aggregates and air-time span into r (the measured
	// run); keep additionally materializes the result array (small-N
	// DeepEqual against the sequential baseline only).
	batch := func(workers int, record, keep bool) (uint64, session.Stats, float64) {
		var mu sync.Mutex
		var sum uint64
		var kept []core.Result
		if keep {
			kept = make([]core.Result, w.n)
		}
		minIssue, maxEnd := int64(-1), int64(0)
		var at, ti [4]float64
		var cnt [4]int
		eng := session.New(env, workers)
		elapsed := observe.Stopwatch()
		stats, err := eng.RunStream(w.gen(), func(i int, res core.Result) {
			mu.Lock()
			defer mu.Unlock()
			sum ^= resultHash(i, res)
			if keep {
				kept[i] = res
			}
			a := i % len(clientAlgos)
			at[a] += float64(res.Metrics.AccessTime)
			ti[a] += float64(res.Metrics.TuneIn)
			cnt[a]++
			issue := w.issues[i]
			if minIssue < 0 || issue < minIssue {
				minIssue = issue
			}
			if end := issue + res.Metrics.AccessTime; end > maxEnd {
				maxEnd = end
			}
		})
		if err != nil {
			panic(err) // generated workloads have non-negative issue slots
		}
		secs := elapsed().Seconds()
		if record {
			r.batchResults = kept
			r.at, r.ti, r.cnt = at, ti, cnt
			if minIssue < 0 {
				minIssue = 0
			}
			r.batchSlots = maxEnd - minIssue
			for a := range at {
				r.seqSlots += int64(at[a]) // Σ access times ≡ sequential air time
			}
		}
		QueriesExecuted.Add(int64(w.n))
		QueryNanos.Add(int64(secs * 1e9))
		return sum, stats, secs
	}

	stop := make(chan struct{})
	heapDone := make(chan struct{})
	runtime.GC()
	go func() {
		observe.SampleHeap(stop, 10*time.Millisecond, &r.peakHeap)
		close(heapDone)
	}()
	sum, stats, secs := batch(workers, true, w.n <= SeqBaselineCap)
	close(stop)
	<-heapDone
	r.checksum, r.stats, r.batchSecs = sum, stats, secs

	if verify {
		sum1, _, _ := batch(1, false, false)
		if sum1 != r.checksum {
			panic(fmt.Sprintf("experiments: session results differ between workers=%d and workers=1 at N=%d (checksums %x vs %x)",
				workers, w.n, r.checksum, sum1))
		}
	}
	return r
}

// MultiClient is the "clients" experiment: the N ladder × four algorithms,
// aggregate access/tune-in per algorithm, the two throughput ratios, and
// the engine-scale columns — execution steps per second and peak heap
// bytes per client.
func MultiClient(cfg Config) *Table {
	cfg = cfg.Defaults()
	counts := cfg.Clients
	if len(counts) == 0 {
		counts = defaultClientCounts
	}
	p := uniformPair(cfg.Seed, 10000, 10000)
	air := pairAir(p, cfg, false)
	rng := rand.New(rand.NewSource(cfg.Seed))
	air.Rephase([2]int64{rng.Int63n(air.CycleLen(0)), rng.Int63n(air.CycleLen(1))})
	// Faults are keyed by (seed, slot) alone, so one shared lossy feed pair
	// serves every client identically — the shared-medium property that
	// keeps batch results worker-count invariant under loss.
	env := core.Env{ChS: air.Feeds[0], ChR: air.Feeds[1], Region: p.Region}

	shape := "issue slots uniform over one cycle"
	if cfg.Window > 0 {
		shape = fmt.Sprintf("arrivals over %.3g cycles", cfg.Window)
	}
	t := &Table{
		ID:     "clients",
		Title:  fmt.Sprintf("Shared-cycle sessions: N concurrent clients vs. N sequential queries (UNIF 10k×10k, %s)", shape),
		XLabel: "clients",
		Metric: "AT/TI = mean access/tune-in pages per algorithm; q/s wall-clock; air-x = broadcast-slot speedup; steps/s, peak-B/client = engine scale",
		Columns: []string{
			"AT(W)", "AT(D)", "AT(H)", "AT(A)",
			"TI(W)", "TI(D)", "TI(H)", "TI(A)",
			"Seq-q/s", "Batch-q/s", "Wall-x", "Air-x",
			"Steps/s", "Peak-B/client",
			"Lost/client",
		},
	}

	for _, n := range counts {
		w := multiClientWorkload(rng.Int63(), p, air.CycleLen(0), n, cfg.Window)
		run := runMultiClient(env, w, cfg.Workers, cfg.VerifyWorkers)

		at, ti := run.at, run.ti
		for a := 0; a < 4; a++ {
			if run.cnt[a] > 0 {
				at[a] /= float64(run.cnt[a])
				ti[a] /= float64(run.cnt[a])
			}
		}

		seqQPS, wallX := 0.0, 0.0
		if run.seqSecs > 0 {
			seqQPS = float64(n) / run.seqSecs
		}
		batchQPS := float64(n) / run.batchSecs
		if seqQPS > 0 {
			wallX = batchQPS / seqQPS
		}
		airX := 0.0
		if run.batchSlots > 0 {
			airX = float64(run.seqSlots) / float64(run.batchSlots)
		}
		t.AddRow(fmt.Sprintf("%d", n),
			at[0], at[1], at[2], at[3],
			ti[0], ti[1], ti[2], ti[3],
			seqQPS, batchQPS, wallX, airX,
			float64(run.stats.Steps)/run.batchSecs,
			float64(run.peakHeap)/float64(n),
			float64(run.stats.Lost)/float64(n),
		)
	}
	return t
}
