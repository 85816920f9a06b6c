package tnnbcast

// Generalized TNN queries — the variants the paper lists as future work
// (Section 7): chains over more than two datasets, order-free two-dataset
// queries, and complete round trips.

import (
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/rtree"
)

// ChainSystem broadcasts k datasets on k channels and answers chain TNN
// queries: visit one object from each dataset in order, minimizing the
// total route length.
type ChainSystem struct {
	env   core.MultiEnv
	trees []*rtree.Tree
}

// NewChain builds a broadcast system over the datasets in visiting order.
// The same options as New apply (page capacity, interleaving, region,
// index scheme, data schedule, faults) except WithSingleChannel, which
// NewChain rejects with an *UnsupportedOptionError; phase offsets — and,
// for a skewed schedule, WithAccessWeights' two weight vectors — are
// assigned per channel from the options' two values by alternating them.
func NewChain(datasets [][]Point, opts ...Option) (*ChainSystem, error) {
	cfg := newConfig(opts)
	if cfg.air.Single {
		return nil, &UnsupportedOptionError{Func: "NewChain", Option: "WithSingleChannel"}
	}
	region, err := cfg.admit("NewChain", datasets)
	if err != nil {
		return nil, err
	}
	air, err := broadcast.BuildAir(datasets, cfg.air)
	if err != nil {
		return nil, err
	}
	return &ChainSystem{env: core.MultiEnv{Chs: air.Feeds, Region: region}, trees: air.Trees}, nil
}

// ChainResult is the outcome of a chain query.
type ChainResult struct {
	// Stops are the chosen objects in visiting order; StopIDs index into
	// the original dataset slices.
	Stops   []Point
	StopIDs []int
	// Dist is the total route length from the query point through every
	// stop.
	Dist       float64
	Found      bool
	AccessTime int64
	TuneIn     int64
	// Lost, Retries, and RecoverySlots account for faulted receptions
	// under WithFaults; see the same fields on Result.
	Lost, Retries, RecoverySlots int64
	// Err is non-nil when a channel died mid-query; chain channels are
	// named "ch0", "ch1", … in visiting order. See Result.Err.
	Err error
}

// Query answers the chain TNN query at p using all channels in parallel
// (the generalized Double-NN strategy). It runs on the executor every
// System.Do query runs on, core.QueryExec, with the pipeline's option
// application (applyOptions) and scratch-pool checkout. It is not a Do
// request, because Request is two-channel; pipeline-level additions to Do
// do not reach the chain path automatically. A query point with a
// NaN or infinite coordinate is rejected as Do rejects it: Err is an
// *InvalidPointError and Found is false.
func (cs *ChainSystem) Query(p Point, opts ...QueryOption) ChainResult {
	if !p.Finite() {
		return ChainResult{Err: &InvalidPointError{Dataset: "query", Point: p}}
	}
	o := applyOptions(0, opts)
	sc := scratchPool.Get().(*core.Scratch)
	defer scratchPool.Put(sc)
	o.Scratch = sc
	res := core.RunChain(cs.env, p, o)
	out := ChainResult{
		Dist:          res.Pair.Dist,
		Found:         res.Found,
		AccessTime:    res.Metrics.AccessTime,
		TuneIn:        res.Metrics.TuneIn,
		Lost:          res.Metrics.Lost,
		Retries:       res.Metrics.Retries,
		RecoverySlots: res.Metrics.RecoverySlots,
		Err:           publicErr(res.Err),
	}
	for _, s := range res.Stops {
		out.Stops = append(out.Stops, s.Point)
		out.StopIDs = append(out.StopIDs, s.ID)
	}
	return out
}

// Exact returns the ground-truth chain answer with full random access.
func (cs *ChainSystem) Exact(p Point) (ChainResult, bool) {
	stops, dist, ok := core.OracleChainTNN(p, cs.trees)
	if !ok {
		return ChainResult{}, false
	}
	out := ChainResult{Dist: dist, Found: true}
	for _, s := range stops {
		out.Stops = append(out.Stops, s.Point)
		out.StopIDs = append(out.StopIDs, s.ID)
	}
	return out, true
}

// QueryUnordered answers the order-free TNN query: visit one object from
// each dataset in whichever order is shorter. sFirst reports whether the
// S-dataset object comes first on the best route. It is a thin wrapper
// over Do with the Unordered variant; a query point with a NaN or
// infinite coordinate panics with *InvalidPointError (use Do for the
// error return).
func (sys *System) QueryUnordered(p Point, opts ...QueryOption) (res Result, sFirst bool) {
	resp, err := sys.Do(Request{Point: p, Variant: Unordered, Options: opts})
	if err != nil {
		panic(err)
	}
	return resp.Result, resp.SFirst
}

// QueryRoundTrip answers the complete-route query: visit one object from S,
// one from R, and return to the start, minimizing the tour length. It is a
// thin wrapper over Do with the RoundTrip variant; a query point with a
// NaN or infinite coordinate panics with *InvalidPointError (use Do for
// the error return).
func (sys *System) QueryRoundTrip(p Point, opts ...QueryOption) Result {
	resp, err := sys.Do(Request{Point: p, Variant: RoundTrip, Options: opts})
	if err != nil {
		panic(err)
	}
	return resp.Result
}

// fromCore converts an internal result.
func fromCore(res core.Result) Result {
	return Result{
		S: res.Pair.S.Point, R: res.Pair.R.Point,
		SID: res.Pair.S.ID, RID: res.Pair.R.ID,
		Dist:           res.Pair.Dist,
		Found:          res.Found,
		AccessTime:     res.Metrics.AccessTime,
		TuneIn:         res.Metrics.TuneIn,
		EstimateTuneIn: res.EstimateTuneIn,
		FilterTuneIn:   res.FilterTuneIn,
		Radius:         res.Radius,
		Case:           HybridCase(res.Case),
		Lost:           res.Metrics.Lost,
		Retries:        res.Metrics.Retries,
		RecoverySlots:  res.Metrics.RecoverySlots,
		Err:            publicErr(res.Err),
	}
}
