// Package experiments reproduces the paper's evaluation (Section 6): every
// figure and table has a runner that generates the workload, executes the
// TNN algorithms over randomized broadcast phases and query points, and
// reports the same series the paper plots. Results are averages over
// cfg.Queries random query points (the paper uses 1,000).
//
// Runs are replayable: workloads derive from Config.Seed via explicitly
// seeded generators, and the only wall-clock reads are throughput
// figures routed through internal/observe. tnnlint enforces both (see
// internal/analysis).
//
//tnn:deterministic
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/observe"
)

// Config controls an experiment run.
type Config struct {
	// Queries is the number of random query points per data configuration
	// (paper: 1,000).
	Queries int
	// Seed drives all randomness (datasets, query points, channel phases).
	Seed int64
	// Air is how every pairing goes on the air: page capacity and (1, m)
	// factor (the other page sizes are Table 2's), R-tree packing, index
	// family, data schedule and fault model. The harness sets the phases
	// and access weights itself (per query and per pairing), and Single
	// only in the single-channel comparison. Under a fault model queries
	// recover transparently: answers stay identical to the lossless run,
	// and access time and tune-in grow.
	Air broadcast.AirSpec
	// Verify additionally computes the exact answer for every query to
	// measure fail rates. It is always on for Table 3.
	Verify bool
	// HotSpotSigma, when positive, draws query points from a Gaussian
	// around the region center with this standard deviation as a fraction
	// of the region width (instead of uniform) — the skewed-access
	// workload the broadcast-disks scheduler targets.
	HotSpotSigma float64
	// Algos, when non-empty, overrides the algorithm set of the
	// experiments that compare a default exact-search set: the fig9 and
	// fig11 series, the page-size and index-family ablations
	// (ablation-pagesize, ablation-index), and the single-channel
	// comparison. Names are registry-resolved (canonical names or the
	// built-in aliases window/double/hybrid/approx; see AlgosByName), so
	// strategies registered from outside internal/ are selectable — this
	// is tnnbench -algos end to end. Experiments whose algorithm set IS
	// the comparison ignore it: the ANN-variant figures (fig10, fig12,
	// fig13, tab3, grid) and the single-algorithm parameter ablations
	// (ablation-cut, ablation-sched, clients). An unknown name panics.
	Algos []string
	// Workers is the number of goroutines RunPairing fans the query loop
	// across (<= 0 = GOMAXPROCS, 1 = strictly sequential). The reported Stats
	// are bit-identical for every worker count: all per-query randomness
	// is pre-drawn from the seeded RNG in sequential order, per-query
	// results are recorded by query index, and the final reduction folds
	// them in query order — the exact float64 summation order of the
	// sequential loop.
	Workers int
	// Clients is the concurrent-client ladder of the multi-client session
	// experiment ("clients"). Empty selects the default ladder.
	Clients []int
	// VerifyWorkers makes the multi-client session experiment re-run
	// every ladder point's batch with workers=1 and panic unless each
	// per-client Result is bit-identical (checksum compare) — the
	// worker-count-invariance guarantee at scales where storing two
	// result sets would dwarf the engine's own footprint. Distinct from
	// Verify, which enables per-query exact-oracle fail-rate checks in
	// the figure experiments.
	VerifyWorkers bool
	// Window shapes the multi-client workload's arrival process: 0 draws
	// every issue slot uniformly inside one S cycle (the whole population
	// concurrently live — the original experiment), w > 0 spreads sorted
	// client arrivals over w cycles, so concurrency is set by arrival
	// rate × per-client lifetime instead of by N. Ladder points above
	// 100k clients require a window (see MultiClient).
	Window float64
}

// Defaults fills unset fields with the paper's defaults.
func (c Config) Defaults() Config {
	if c.Queries == 0 {
		c.Queries = 1000
	}
	params := broadcast.DefaultParams() // 64-byte pages
	if c.Air.Params.PageCap != 0 {
		params.PageCap = c.Air.Params.PageCap
	}
	params.M = c.Air.Params.M
	c.Air.Params = params
	if c.Air.Faults.Seed == 0 {
		c.Air.Faults.Seed = 0x7e55e1a7e // default fault-pattern seed, fixed for reproducibility
	}
	if c.Seed == 0 {
		c.Seed = 20080325 // EDBT'08 opening day
	}
	return c
}

// Algorithm names used across all experiments.
const (
	AlgoWindow      = "Window-Based"
	AlgoDouble      = "Double-NN"
	AlgoHybrid      = "Hybrid-NN"
	AlgoApproximate = "Approximate-TNN"
)

// AlgoSpec is one algorithm variant under test (an algorithm plus an ANN
// configuration).
type AlgoSpec struct {
	Name string
	Algo core.Algo
	ANN  core.ANNConfig
}

// run answers one query with the spec's algorithm.
func (a AlgoSpec) run(env core.Env, p geom.Point, opt core.Options) core.Result {
	res, _ := core.Run(env, a.Algo, p, opt)
	return res
}

// ExactAlgos returns the four algorithms with exact search, in the paper's
// presentation order.
func ExactAlgos() []AlgoSpec {
	return []AlgoSpec{
		{Name: AlgoWindow, Algo: core.AlgoWindow},
		{Name: AlgoDouble, Algo: core.AlgoDouble},
		{Name: AlgoHybrid, Algo: core.AlgoHybrid},
		{Name: AlgoApproximate, Algo: core.AlgoApprox},
	}
}

// AlgosByName resolves algorithm names through the core registry into
// exact-search AlgoSpecs — built-ins by canonical name or alias, plus any
// strategy registered via the public tnnbcast.RegisterAlgorithm. An
// unknown name is an error (never a silent fallback).
func AlgosByName(names []string) ([]AlgoSpec, error) {
	out := make([]AlgoSpec, 0, len(names))
	for _, name := range names {
		a, ok := core.AlgoByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown algorithm %q (registered: %v)",
				name, core.AlgoNames())
		}
		spec, _ := core.Lookup(a)
		out = append(out, AlgoSpec{Name: spec.Name, Algo: a})
	}
	return out, nil
}

// resolveAlgos applies the Config.Algos override to an experiment's
// default algorithm set.
func (c Config) resolveAlgos(algos []AlgoSpec) []AlgoSpec {
	if len(c.Algos) == 0 {
		return algos
	}
	out, err := AlgosByName(c.Algos)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// Stats aggregates one algorithm's performance over a query workload.
type Stats struct {
	MeanAccess   float64 // mean access time, pages
	MeanTuneIn   float64 // mean tune-in time, pages
	MeanEstimate float64 // mean estimate-phase tune-in, pages
	MeanFilter   float64 // mean filter-phase tune-in, pages
	FailRate     float64 // fraction of queries whose answer was not the exact TNN
	MeanLost     float64 // mean faulted receptions per query (Config.Air.Faults)
	MeanRecovery float64 // mean loss-recovery slots per query
	ErrRate      float64 // fraction of queries that gave up on a dead channel
	Queries      int
}

// Pairing is one (S, R) dataset configuration on air. WeightsS/WeightsR
// are optional per-object access weights consumed by the skewed data
// scheduler (nil = uniform).
type Pairing struct {
	Name               string
	S, R               []geom.Point
	Region             geom.Rect
	WeightsS, WeightsR []float64
}

// pairAir puts a pairing on the air under cfg.Air with the pairing's
// access weights, on two dedicated channels or, with single, on one
// multiplexed channel. Callers Rephase it to the phases they draw.
func pairAir(p Pairing, cfg Config, single bool) *broadcast.Air {
	spec := cfg.Air
	spec.Weights = [2][]float64{p.WeightsS, p.WeightsR}
	spec.Single = single
	return broadcast.BuildAir([][]geom.Point{p.S, p.R}, spec)
}

// QueriesExecuted counts every algorithm execution the harness performs,
// across all pairings; QueryNanos accumulates the summed execution time of
// those algorithm runs alone — oracle verification, dataset generation,
// R-tree packing, and program builds are all excluded — so
// QueryNanos / QueriesExecuted is the mean per-query algorithm time
// regardless of worker count. cmd/tnnbench reads the deltas around an
// experiment. The counters are process-global: deltas are only meaningful
// when one experiment runs at a time.
var (
	QueriesExecuted atomic.Int64
	QueryNanos      atomic.Int64
)

// queryDraw is one query's pre-drawn randomness: the query point and the
// two channel phase offsets. Drawing everything up front in the sequential
// RNG order is what lets the query loop fan out across workers without
// changing a single reported number.
type queryDraw struct {
	qp     geom.Point
	phases [2]int64
}

// queryCell is one (query, algorithm) measurement. Workers write disjoint
// cells by index; the reduction reads them in query order.
type queryCell struct {
	access, tunein, estimate, filter int64
	lost, recovery                   int64
	fail, errored                    bool
}

// RunPairing executes every algorithm over cfg.Queries random query points
// on the pairing. All algorithms see identical query points and channel
// phases, so their metrics are directly comparable (paired design, as in
// the paper).
//
// The query loop runs on cfg.Workers goroutines (default GOMAXPROCS). The
// simulator state touched per query — channels, receivers, searches — is
// per-worker: each worker rephases its own Clone of the air, whose trees
// and indexes are immutable and shared. The returned Stats are
// bit-identical for every worker count.
func RunPairing(p Pairing, algos []AlgoSpec, cfg Config) map[string]Stats {
	cfg = cfg.Defaults()
	air := pairAir(p, cfg, false)

	// Pre-draw all per-query randomness in the exact order the sequential
	// loop consumed it: query point (x, then y), then the two phases.
	// "Two random numbers are generated to simulate the waiting time to
	// get the two roots."
	rng := rand.New(rand.NewSource(cfg.Seed))
	draws := make([]queryDraw, cfg.Queries)
	for q := range draws {
		var x, y float64
		if cfg.HotSpotSigma > 0 {
			// Skewed-access workload: queries cluster on the region center.
			cx := (p.Region.Lo.X + p.Region.Hi.X) / 2
			cy := (p.Region.Lo.Y + p.Region.Hi.Y) / 2
			x = clampTo(cx+rng.NormFloat64()*cfg.HotSpotSigma*p.Region.Width(),
				p.Region.Lo.X, p.Region.Hi.X)
			y = clampTo(cy+rng.NormFloat64()*cfg.HotSpotSigma*p.Region.Height(),
				p.Region.Lo.Y, p.Region.Hi.Y)
		} else {
			x = p.Region.Lo.X + rng.Float64()*p.Region.Width()
			y = p.Region.Lo.Y + rng.Float64()*p.Region.Height()
		}
		phases := [2]int64{rng.Int63n(air.CycleLen(0)), rng.Int63n(air.CycleLen(1))}
		draws[q] = queryDraw{qp: geom.Pt(x, y), phases: phases}
	}

	cells := make([]queryCell, cfg.Queries*len(algos))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Queries {
		workers = cfg.Queries
	}

	if workers <= 1 {
		var next atomic.Int64
		runPairingWorker(&next, p, algos, cfg, air, draws, cells)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runPairingWorker(&next, p, algos, cfg, air, draws, cells)
			}()
		}
		wg.Wait()
	}
	QueriesExecuted.Add(int64(len(draws) * len(algos)))

	// Fold the cells in query order: the same float64 summation order as
	// the sequential loop, so means match bit for bit regardless of which
	// worker produced which cell.
	sums := make([]Stats, len(algos))
	for q := 0; q < cfg.Queries; q++ {
		for i := range algos {
			c := cells[q*len(algos)+i]
			st := &sums[i]
			st.MeanAccess += float64(c.access)
			st.MeanTuneIn += float64(c.tunein)
			st.MeanEstimate += float64(c.estimate)
			st.MeanFilter += float64(c.filter)
			st.MeanLost += float64(c.lost)
			st.MeanRecovery += float64(c.recovery)
			if c.fail {
				st.FailRate++
			}
			if c.errored {
				st.ErrRate++
			}
		}
	}

	out := make(map[string]Stats, len(algos))
	n := float64(cfg.Queries)
	for i, a := range algos {
		st := sums[i]
		out[a.Name] = Stats{
			MeanAccess:   st.MeanAccess / n,
			MeanTuneIn:   st.MeanTuneIn / n,
			MeanEstimate: st.MeanEstimate / n,
			MeanFilter:   st.MeanFilter / n,
			FailRate:     st.FailRate / n,
			MeanLost:     st.MeanLost / n,
			MeanRecovery: st.MeanRecovery / n,
			ErrRate:      st.ErrRate / n,
			Queries:      cfg.Queries,
		}
	}
	return out
}

// runPairingWorker claims query indices from next and executes every
// algorithm on them, writing results into the claimed cells. Each worker
// owns one core.Scratch and one copy of the air, rephased per query, so a
// steady-state query allocates (almost) nothing. Faults are keyed by
// (seed, slot) alone, so every worker — and every worker count — sees the
// identical fault pattern.
func runPairingWorker(next *atomic.Int64, p Pairing, algos []AlgoSpec, cfg Config,
	air *broadcast.Air, draws []queryDraw, cells []queryCell) {

	scratch := core.NewScratch()
	own := air.Clone()
	env := core.Env{ChS: own.Feeds[0], ChR: own.Feeds[1], Region: p.Region}
	var nanos int64
	defer func() { QueryNanos.Add(nanos) }()
	for {
		q := int(next.Add(1)) - 1
		if q >= len(draws) {
			return
		}
		d := draws[q]
		own.Rephase(d.phases)

		var oracle core.Pair
		var oracleOK bool
		if cfg.Verify {
			oracle, oracleOK = core.OracleTNN(d.qp, air.Trees[0], air.Trees[1])
		}

		elapsed := observe.Stopwatch()
		for i, a := range algos {
			res := a.run(env, d.qp, core.Options{ANN: a.ANN, Scratch: scratch})
			cell := &cells[q*len(algos)+i]
			cell.access = res.Metrics.AccessTime
			cell.tunein = res.Metrics.TuneIn
			cell.estimate = res.EstimateTuneIn
			cell.filter = res.FilterTuneIn
			cell.lost = res.Metrics.Lost
			cell.recovery = res.Metrics.RecoverySlots
			cell.errored = res.Err != nil
			if cfg.Verify && oracleOK {
				cell.fail = !res.Found ||
					math.Abs(res.Pair.Dist-oracle.Dist) > 1e-9*(1+oracle.Dist)
			}
		}
		nanos += elapsed().Nanoseconds()
	}
}

// clampTo limits v to [lo, hi].
func clampTo(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// uniformPair builds a UNIF(S)×UNIF(R) pairing by dataset sizes over the
// paper region. Seeds are derived from cfg.Seed so that every pairing in a
// series uses distinct but reproducible data.
func uniformPair(seed int64, sizeS, sizeR int) Pairing {
	return Pairing{
		S:      dataset.Uniform(seed+1, sizeS, dataset.PaperRegion),
		R:      dataset.Uniform(seed+2, sizeR, dataset.PaperRegion),
		Region: dataset.PaperRegion,
	}
}
