// Package tnnbcast is a library for processing transitive nearest-neighbor
// (TNN) queries in multi-channel wireless broadcast environments,
// reproducing Zhang, Lee, Mitra and Zheng, "Processing Transitive
// Nearest-Neighbor Queries in Multi-Channel Access Environments"
// (EDBT 2008).
//
// A TNN query asks, for a query point p and two datasets S and R (say post
// offices and restaurants), for the pair (s, r) minimizing the two-leg trip
// dis(p,s) + dis(s,r). In the broadcast setting the datasets are not stored
// locally: a server cyclically transmits each dataset on its own channel as
// a packed R-tree air index interleaved with the data pages ((1,m) scheme),
// and the mobile client — which can listen to both channels at once —
// answers the query by choosing which pages to download and when. Two
// costs matter: access time (elapsed pages until the answer is complete)
// and tune-in time (pages actually downloaded; the energy proxy).
//
// Basic use:
//
//	sys, err := tnnbcast.New(postOffices, restaurants)
//	if err != nil { ... }
//	res := sys.Query(tnnbcast.Pt(x, y), tnnbcast.Double)
//	fmt.Println(res.S, res.R, res.Dist, res.AccessTime, res.TuneIn)
//
// Query and its variant siblings are thin wrappers over the v2 request
// pipeline, which adds typed errors, streaming, batching, and pluggable
// strategies; Do, Start and QueryBatch all take the same Request:
//
//	resp, err := sys.Do(tnnbcast.Request{Point: p, Algo: tnnbcast.Hybrid})
//	if err != nil { ... }                  // e.g. *UnknownAlgorithmError
//
//	cur, err := sys.Start(tnnbcast.Request{Point: p, Variant: tnnbcast.TopK, K: 3})
//	if err != nil { ... }
//	for ev := range cur.Events() {         // typed page-level event stream
//		if pg, ok := ev.(tnnbcast.PageDownloaded); ok {
//			fmt.Println(pg.Channel, pg.Slot, pg.Kind)
//		}
//	}
//	fmt.Println(cur.Response().TopK.Pairs)
//
// The package exposes the paper's four algorithms (Window, Double, Hybrid,
// Approximate) and the approximate-NN energy optimization (WithANN,
// WithDensityAwareANN); RegisterAlgorithm adds custom strategies that are
// selectable through every entry point. See the examples directory for
// runnable scenarios and cmd/tnnbench for the full evaluation harness.
package tnnbcast

import (
	"fmt"
	"sync"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// scratchPool recycles per-query search state (candidate queues, entry
// buffers, search structs) across Query calls, so steady-state queries
// through the public API allocate (almost) nothing. Queries stay safe to
// run concurrently: each call checks out its own scratch.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// Point is a location in the plane.
type Point = geom.Point

// Rect is an axis-aligned rectangle.
type Rect = geom.Rect

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// RectOf constructs the rectangle spanned by two corner points.
func RectOf(a, b Point) Rect { return geom.RectOf(a, b) }

// Algorithm selects a TNN query-processing algorithm: one of the four
// built-ins below, or any value returned by RegisterAlgorithm. Values
// outside the registry are rejected with *UnknownAlgorithmError (Do,
// Start, QueryBatch) or a panic carrying it (the error-less legacy
// signature Query).
type Algorithm int

const (
	// Window is the Window-Based-TNN-Search baseline (sequential NN
	// queries: s = p.NN(S), then r = s.NN(R)).
	Window Algorithm = iota
	// Double is the Double-NN-Search algorithm: both NN queries run in
	// parallel on the two channels.
	Double
	// Hybrid is the Hybrid-NN-Search algorithm: parallel NN queries where
	// the first to finish redirects the other (query-point switch or
	// transitive-metric switch).
	Hybrid
	// Approximate is the Approximate-TNN-Search baseline: no estimate
	// phase; the search radius comes from a uniform-density formula and
	// is not guaranteed to contain the answer.
	Approximate
)

func (a Algorithm) String() string {
	switch a {
	case Window:
		return "Window-Based"
	case Double:
		return "Double-NN"
	case Hybrid:
		return "Hybrid-NN"
	case Approximate:
		return "Approximate-TNN"
	default:
		if spec, ok := core.Lookup(core.Algo(a)); ok {
			return spec.Name
		}
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// IndexScheme selects the air-index family the broadcast programs use.
type IndexScheme int

const (
	// PreorderIndex is the paper's organization: the full packed R-tree in
	// preorder before each of the m data fractions ((1, m) interleaving).
	PreorderIndex = IndexScheme(broadcast.SchemePreorder)
	// DistributedIndex replicates only the upper tree levels, as a
	// root-to-branch path before each branch's index-and-data segment —
	// (1, m)-like entry frequency at a fraction of the index overhead, so
	// cycles are shorter and both metrics drop.
	DistributedIndex = IndexScheme(broadcast.SchemeDistributed)
)

func (s IndexScheme) String() string {
	if s == DistributedIndex {
		return "distributed"
	}
	return "preorder"
}

// System is a two-channel broadcast of datasets S and R, ready to answer
// TNN queries. It is immutable and safe for concurrent queries.
type System struct {
	env  core.Env
	air  *broadcast.Air
	live liveConn // the live broadcast of a Connect system; nil in process
}

// newSystem wraps a built air whose two datasets queries receive through
// chS and chR: the air's own feeds in process, the wire's for Connect.
func newSystem(air *broadcast.Air, chS, chR broadcast.Feed, region Rect) *System {
	return &System{env: core.Env{ChS: chS, ChR: chR, Region: region}, air: air}
}

// Option configures New.
type Option func(*config)

type config struct {
	air     broadcast.AirSpec
	region  Rect
	hasReg  bool
	skewSet bool
}

// admit runs broadcast.Check, the one admission check of a broadcast, on
// constructor fn's datasets (on the region only when WithRegion set one)
// and maps a refusal to fn's typed error. It returns the service region:
// the configured one, or else the bounding box of every dataset.
func (c *config) admit(fn string, sets [][]Point) (Rect, error) {
	region := &c.region
	if !c.hasReg {
		region = nil
	}
	rej := broadcast.Check(sets, &c.air, region, c.skewSet)
	if rej == nil && c.hasReg {
		return c.region, nil
	} else if rej == nil {
		box := geom.EmptyRect()
		for _, set := range sets {
			for _, p := range set {
				box = box.Extend(p)
			}
		}
		return box, nil
	}
	name := fmt.Sprintf("datasets[%d]", rej.Set)
	if fn == "New" && rej.Set >= 0 {
		name = [...]string{"S", "R"}[rej.Set]
	}
	switch rej.Field {
	case broadcast.FieldScheme:
		return Rect{}, &UnknownIndexSchemeError{Scheme: IndexScheme(c.air.Scheme)}
	case broadcast.FieldCut:
		return Rect{}, &UnsupportedOptionError{Func: fn, Option: "WithReplicatedLevels"}
	case broadcast.FieldSchedule:
		return Rect{}, &InvalidScheduleError{Disks: c.air.SkewDisks, Ratio: c.air.SkewRatio}
	case broadcast.FieldPoint:
		return Rect{}, &InvalidPointError{Dataset: name, Index: rej.Index, Point: sets[rej.Set][rej.Index]}
	case broadcast.FieldWeight:
		return Rect{}, &InvalidWeightError{Dataset: name, Index: rej.Index, Weight: rej.Value}
	case broadcast.FieldRegion:
		return Rect{}, &InvalidRegionError{Region: c.region}
	}
	return Rect{}, rej.Err // the page parameters' or fault model's own error
}

// WithPageCap sets the broadcast page capacity in bytes (default 64; the
// paper evaluates 64–512). The R-tree fanout follows from it.
func WithPageCap(bytes int) Option {
	return func(c *config) { c.air.Params.PageCap = bytes }
}

// WithInterleave fixes the (1,m) interleaving factor instead of the
// Imielinski-optimal default.
func WithInterleave(m int) Option {
	return func(c *config) { c.air.Params.M = m }
}

// WithDataSize sets one data object's content size in bytes (default 1024,
// the paper's Table 2). Each object occupies ⌈DataSize/PageCap⌉ consecutive
// data pages; smaller objects shorten the cycle, which keeps real-time
// services (tnnserve) fast to loop.
func WithDataSize(bytes int) Option {
	return func(c *config) { c.air.Params.DataSize = bytes }
}

// WithRegion declares the common service region. By default it is the
// bounding box of both datasets. Approximate-TNN scales its radius
// estimate by the region's area.
func WithRegion(r Rect) Option {
	return func(c *config) { c.region, c.hasReg = r, true }
}

// WithPhases sets the two channels' phase offsets (the slot at which each
// channel's cycle begins). Defaults are zero; experiments randomize them
// per query to model the random waiting time for the index roots.
//
// Phase offsets are cyclic: New normalizes any value — negative or beyond
// one cycle length — into [0, cycle) before the broadcast starts, so
// WithPhases(-3, 0) and WithPhases(cycleLen-3, 0) configure the identical
// channel. The normalized values are reported by Phases. (Under
// WithSingleChannel only the S offset applies, modulo the combined cycle.)
func WithPhases(offS, offR int64) Option {
	return func(c *config) { c.air.Phases = [2]int64{offS, offR} }
}

// WithIndexScheme selects the air-index family (default PreorderIndex,
// the paper's scheme). All four algorithms run unchanged on any scheme —
// they consult the broadcast only through arrival-time queries.
func WithIndexScheme(s IndexScheme) Option {
	return func(c *config) { c.air.Scheme = broadcast.SchemeID(s) }
}

// WithReplicatedLevels sets how many upper tree levels the distributed
// index replicates before each branch segment (the cut level; default 0 =
// half the tree height). Ignored by PreorderIndex. New and NewChain
// reject a negative value with an *UnsupportedOptionError.
func WithReplicatedLevels(levels int) Option {
	return func(c *config) { c.air.Cut = levels }
}

// WithSkewedSchedule replaces the flat data organization with a
// broadcast-disks schedule: each dataset's objects are ranked by access
// weight (see WithAccessWeights) into disks frequency classes (1..16),
// adjacent classes differing by the integer factor ratio (2..16), so hot
// objects recur with shorter periods at the cost of a longer cycle.
// Out-of-range values are rejected by New/NewChain.
func WithSkewedSchedule(disks, ratio int) Option {
	return func(c *config) { c.skewSet, c.air.SkewDisks, c.air.SkewRatio = true, disks, ratio }
}

// WithAccessWeights supplies per-object access weights for the skewed
// schedule, indexed like the dataset slices (nil = uniform on that
// dataset). Weights must be finite and non-negative, and each non-nil
// slice must match its dataset's length.
func WithAccessWeights(wS, wR []float64) Option {
	return func(c *config) { c.air.Weights = [2][]float64{wS, wR} }
}

// FaultModel describes the lossy-air conditions WithFaults injects: page
// loss (i.i.d. or bursty) and checksum-detected corruption. The zero value
// is the perfect channel. Faults are deterministic — a pure function of
// (Seed, channel, slot) — so any run is exactly reproducible, and a lost
// slot is lost for every listening client identically, just as on a real
// shared medium.
type FaultModel struct {
	// Loss is the long-run page loss probability, in [0, 1).
	Loss float64
	// Burst is the mean loss-burst length in pages. Burst <= 1 selects
	// independent (Bernoulli) loss; Burst > 1 selects a Gilbert–Elliott
	// two-state channel whose loss bursts average Burst pages while the
	// stationary loss rate stays exactly Loss.
	Burst float64
	// Corrupt is the independent per-page probability that a delivered
	// page fails its CRC32C check, in [0, 1). Corrupted pages cost tune-in
	// (the receiver downloaded them) before being discarded.
	Corrupt float64
	// Seed seeds the fault pattern. Each physical channel derives its own
	// decorrelated stream from this one seed.
	Seed uint64
}

// WithFaults subjects the system's channels to the given fault model.
// Queries recover transparently: a faulted page costs its tune-in (when
// downloaded and discarded) or a missed slot (when lost), the client
// re-derives the page's next broadcast arrival from the air index and
// retries, and only access time and tune-in grow — answers are identical
// to the lossless system. A channel that faults WithMaxRetries times in a
// row is declared dead; see Result.Err. New rejects out-of-range rates.
func WithFaults(m FaultModel) Option {
	return func(c *config) {
		c.air.Faults = broadcast.FaultModel{Loss: m.Loss, Burst: m.Burst, Corrupt: m.Corrupt, Seed: m.Seed}
	}
}

// WithSingleChannel time-multiplexes both datasets on ONE physical channel
// — the predecessor environment of Zheng–Lee–Lee (SUTC 2006) that the
// paper's multi-channel setting improves on. All algorithms run unchanged;
// access times grow because the combined cycle is longer and the two
// searches cannot overlap in time. Only the S phase offset applies. The
// option applies to New only; NewChain rejects it.
func WithSingleChannel() Option {
	return func(c *config) { c.air.Single = true }
}

// New builds the packed R-trees and broadcast programs for datasets S and
// R and returns a query-ready System.
//
// Inputs are validated up front: a point with a NaN or infinite coordinate
// yields an *InvalidPointError, an explicitly configured non-finite region
// an *InvalidRegionError. Empty datasets are accepted — queries over them
// complete normally with Found == false. A channel cycle of more than
// 2³¹-1 slots (say, huge WithDataSize objects) is an error too.
func New(s, r []Point, opts ...Option) (*System, error) {
	cfg := newConfig(opts)
	sets := [][]Point{s, r}
	region, err := cfg.admit("New", sets)
	if err != nil {
		return nil, err
	}
	air, err := broadcast.BuildAir(sets, cfg.air)
	if err != nil {
		return nil, err
	}
	return newSystem(air, air.Feeds[0], air.Feeds[1], region), nil
}

// newConfig applies opts over the defaults.
func newConfig(opts []Option) config {
	cfg := config{air: broadcast.AirSpec{Params: broadcast.DefaultParams()}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Phases returns the normalized phase offsets the two channels broadcast
// with (the canonical [0, cycle) equivalents of the WithPhases values).
// Under WithSingleChannel the first value is the combined-cycle offset and
// the second is zero.
func (sys *System) Phases() (offS, offR int64) {
	if sys.air.Channels() > 1 {
		offR = sys.air.Phase(1)
	}
	return sys.air.Phase(0), offR
}

// Result is the outcome of one TNN query.
type Result struct {
	// S and R are the answer pair's locations; SID and RID index into the
	// original dataset slices.
	S, R     Point
	SID, RID int
	// Dist is the transitive distance dis(p,S) + dis(S,R).
	Dist float64
	// Found is false when the algorithm could not produce an answer
	// (possible only for Approximate on skewed data, or empty datasets).
	Found bool
	// AccessTime is the paper's access time in pages: elapsed broadcast
	// slots from query issue until the answer (including its data pages)
	// is complete, maximized over the two channels.
	AccessTime int64
	// TuneIn is the number of pages downloaded on both channels — the
	// energy-consumption proxy.
	TuneIn int64
	// EstimateTuneIn and FilterTuneIn split TuneIn by query phase.
	EstimateTuneIn, FilterTuneIn int64
	// Radius is the search-range radius the estimate phase determined.
	Radius float64
	// Case records which Hybrid-NN case the query exercised
	// (HybridCaseNone for the other algorithms and for a Hybrid run whose
	// two estimate searches finished together, the paper's Case 1).
	Case HybridCase
	// Lost counts the faulted receptions under WithFaults: pages that were
	// lost on air or downloaded and discarded on a checksum failure
	// (corrupted pages are also counted in TuneIn — the energy was spent).
	Lost int64
	// Retries counts the faulted receptions the query recovered from by
	// re-deriving the page's next arrival and downloading it again.
	Retries int64
	// RecoverySlots is the total access-time share spent recovering: the
	// slots between each first fault and the next successful download.
	RecoverySlots int64
	// Err is non-nil when the query gave up on a dead channel: a
	// *ChannelError after MaxRetries consecutive faulted receptions. A
	// search-phase escalation leaves Found false; an escalation during
	// answer retrieval keeps the found pair. Always nil without WithFaults.
	Err error
}

// HybridCase identifies the Hybrid-NN redirect a query performed.
type HybridCase int

const (
	// HybridCaseNone: no redirect happened (non-Hybrid algorithms, or
	// Hybrid-NN Case 1).
	HybridCaseNone HybridCase = HybridCase(core.CaseNone)
	// HybridCase2: the S-channel search finished first and the R-channel
	// search was retargeted to s = p.NN(S).
	HybridCase2 HybridCase = HybridCase(core.Case2)
	// HybridCase3: the R-channel search finished first and the S-channel
	// search switched to the transitive metric.
	HybridCase3 HybridCase = HybridCase(core.Case3)
)

// QueryOption configures a single query.
type QueryOption func(*core.Options)

// WithANN enables the approximate-NN optimization with the given
// adjustment factor on both channels. FactorWindowDouble and FactorHybrid
// are the calibrated defaults for the respective algorithms.
func WithANN(factor float64) QueryOption {
	return func(o *core.Options) { o.ANN = core.UniformANN(factor) }
}

// WithANNFactors sets per-channel ANN factors (0 = exact search on that
// channel).
func WithANNFactors(factorS, factorR float64) QueryOption {
	return func(o *core.Options) {
		o.ANN = core.ANNConfig{FactorS: factorS, FactorR: factorR}
	}
}

// WithIssue sets the slot at which the query is issued (default 0).
func WithIssue(slot int64) QueryOption {
	return func(o *core.Options) { o.Issue = slot }
}

// WithoutDataRetrieval excludes the final answer-attribute download from
// the metrics.
func WithoutDataRetrieval() QueryOption {
	return func(o *core.Options) { o.SkipDataRetrieval = true }
}

// WithMaxRetries bounds the consecutive faulted receptions a query
// tolerates per channel (under WithFaults) before giving up with a
// *ChannelError. Values < 1 select the default of 16. Lossless systems
// never consult it.
func WithMaxRetries(k int) QueryOption {
	return func(o *core.Options) {
		if k < 1 {
			k = 0
		}
		o.MaxRetries = k
	}
}

// FactorWindowDouble is the calibrated ANN factor for Window and Double.
const FactorWindowDouble = core.FactorWindowDouble

// FactorHybrid is the calibrated ANN factor for Hybrid.
const FactorHybrid = core.FactorHybrid

// DensityAwareANN returns the per-channel factors of the paper's density
// rule for this system's datasets: exact search on the sparser dataset,
// the given factor on the denser one.
func (sys *System) DensityAwareANN(factor float64) QueryOption {
	cfg := core.DensityAwareANN(sys.air.Trees[0].Count, sys.air.Trees[1].Count, factor)
	return func(o *core.Options) { o.ANN = cfg }
}

// Query answers the TNN query at p with the selected algorithm over the
// broadcast channels. It is a thin wrapper over Do and panics with every
// admission error: *UnknownAlgorithmError for an unregistered Algorithm,
// *InvalidPointError for a query point with a NaN or infinite coordinate
// (use Do for the error return).
func (sys *System) Query(p Point, algo Algorithm, opts ...QueryOption) Result {
	resp, err := sys.Do(Request{Point: p, Algo: algo, Options: opts})
	if err != nil {
		panic(err)
	}
	return resp.Result
}

// Exact returns the true TNN answer computed with full random access (no
// broadcast costs) — the ground truth the broadcast algorithms are
// measured against.
func (sys *System) Exact(p Point) (Result, bool) {
	pair, ok := core.OracleTNN(p, sys.air.Trees[0], sys.air.Trees[1])
	if !ok {
		return Result{}, false
	}
	return Result{
		S: pair.S.Point, R: pair.R.Point,
		SID: pair.S.ID, RID: pair.R.ID,
		Dist: pair.Dist, Found: true,
	}, true
}

// Stats describes the broadcast layout of one channel.
type Stats struct {
	Points       int
	IndexPages   int   // distinct index pages (one per R-tree node)
	DataPages    int   // data-page slots per cycle, counting repetitions
	Interleave   int   // index entry points per cycle: m, or the segment count
	CycleLen     int64 // slots per broadcast cycle
	TreeHeight   int
	Fanout       int
	LeafCapacity int
	Scheme       string // air-index family on air, e.g. "preorder"
}

// ChannelStats returns the broadcast layout of the S and R channels.
func (sys *System) ChannelStats() (s, r Stats) {
	mk := func(idx broadcast.AirIndex, t *rtree.Tree) Stats {
		return Stats{
			Points:       t.Count,
			IndexPages:   idx.NumIndexPages(),
			DataPages:    idx.NumDataPages(),
			Interleave:   idx.Replication(),
			CycleLen:     idx.CycleLen(),
			TreeHeight:   t.Height,
			Fanout:       t.NodeCap,
			LeafCapacity: t.LeafCap,
			Scheme:       idx.Scheme(),
		}
	}
	return mk(sys.air.Indexes[0], sys.air.Trees[0]), mk(sys.air.Indexes[1], sys.air.Trees[1])
}

// Region returns the service region the system assumes.
func (sys *System) Region() Rect { return sys.env.Region }

// Convenience re-exports of the dataset generators, so downstream users
// can reproduce the paper's workloads without importing internals.

// UniformDataset returns n points uniform over region (deterministic in
// seed).
func UniformDataset(seed int64, n int, region Rect) []Point {
	return dataset.Uniform(seed, n, region)
}

// ClusteredDataset returns n Gaussian-mixture points over region.
func ClusteredDataset(seed int64, n, clusters int, region Rect) []Point {
	return dataset.Clustered(seed, n, clusters, 0.02, region)
}

// CityDataset returns the CITY real-data substitute (≈6,000 settlement
// locations with large empty areas, in PaperRegion).
func CityDataset(seed int64) []Point { return dataset.City(seed) }

// PostDataset returns the POST real-data substitute (≈100,000 corridor-
// clustered locations in a 10⁶×10⁶ region), rescaled to the given region.
func PostDataset(seed int64, region Rect) []Point {
	return dataset.Scale(dataset.Post(seed), dataset.PostRegion, region)
}

// PaperRegion is the 39,000×39,000 region of the paper's synthetic
// datasets.
var PaperRegion = dataset.PaperRegion
