package tnnbcast

// The v2 request pipeline. Every public query entry point — Do, the
// streaming Start, QueryBatch, and the one-line wrappers Query,
// QueryUnordered and QueryRoundTrip — admits its Request through prepare
// (validation, option application, the live issue slot) and converts its
// answer through respond (the core result → Response conversion, and the
// live connection's error translation). A fix to either reaches every
// entry point, on a System and on a RemoteSystem alike.

import (
	"fmt"

	"tnnbcast/internal/core"
)

// Variant selects the query type of a Request. The values mirror
// core.Variant.
type Variant int

const (
	// Transitive is the paper's TNN query: one object from S, then one
	// from R, minimizing dis(p,s) + dis(s,r). The only variant with a
	// selectable Algorithm; the others use the generalized Double-NN
	// (parallel estimate) strategy.
	Transitive Variant = iota
	// Unordered visits one object from each dataset in whichever
	// order is shorter.
	Unordered
	// RoundTrip minimizes the full tour
	// dis(p,s) + dis(s,r) + dis(r,p).
	RoundTrip
	// TopK returns the K best (s, r) pairs in ascending
	// transitive-distance order.
	TopK
)

func (v Variant) String() string {
	switch v {
	case Transitive:
		return "transitive"
	case Unordered:
		return "unordered"
	case RoundTrip:
		return "roundtrip"
	case TopK:
		return "topk"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Request describes one TNN query in the v2 API.
type Request struct {
	// Point is the query point.
	Point Point
	// Algo selects the processing algorithm (Transitive variant only) —
	// a built-in or any Algorithm returned by RegisterAlgorithm.
	Algo Algorithm
	// Variant selects the query type; the zero value is Transitive.
	Variant Variant
	// K is the result count for TopK (ignored otherwise).
	K int
	// Options are the per-query options (WithIssue, WithANN, …).
	Options []QueryOption
}

// Metrics are the paper's two performance measures for one query, in
// pages.
type Metrics struct {
	// AccessTime is the elapsed broadcast slots from query issue until
	// the answer is complete, maximized over the channels.
	AccessTime int64
	// TuneIn is the number of pages downloaded across all channels — the
	// energy-consumption proxy.
	TuneIn int64
	// Lost, Retries, and RecoverySlots account for faulted receptions
	// under WithFaults; see the same fields on Result.
	Lost, Retries, RecoverySlots int64
}

// AnswerPair is one (s, r) pair of a top-k answer.
type AnswerPair struct {
	// S and R are the pair's locations; SID and RID index into the
	// original dataset slices.
	S, R     Point
	SID, RID int
	// Dist is the transitive distance dis(p,s) + dis(s,r).
	Dist float64
}

// TopKResult is a top-k TNN answer: the ranked pairs plus ONE set of
// whole-query metrics — the query downloads its pages once, so the
// metrics belong to the query, not to each pair.
type TopKResult struct {
	// Pairs are the K best pairs in ascending transitive-distance order
	// (fewer when the datasets are smaller than K).
	Pairs []AnswerPair
	// Found is false when no pair was found (empty datasets).
	Found bool
	// Metrics are the whole-query access and tune-in times.
	Metrics Metrics
	// Radius is the search-range radius of the k-NN estimate phase.
	Radius float64
	// Err is non-nil when the query gave up on a dead channel; see
	// Result.Err.
	Err error
}

// Response is the outcome of one Request, the same shape from Do, a
// Cursor, and QueryBatch.
type Response struct {
	// Result is the answer for the Transitive, Unordered, and
	// RoundTrip queries.
	Result Result
	// SFirst reports, for Unordered, whether the S-dataset object
	// is visited first on the best route.
	SFirst bool
	// TopK is the TopK answer.
	TopK TopKResult
}

// applyOptions folds the functional options over the default issue slot
// into the internal options struct — the single place every entry point
// (and the chain system) builds its core.Options.
func applyOptions(issue int64, opts []QueryOption) core.Options {
	o := core.Options{Issue: issue}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// prepare admits one request: a query point with a NaN or infinite
// coordinate yields an *InvalidPointError (Dataset "query"), an
// unregistered Algorithm an *UnknownAlgorithmError, a TopK K < 1 an
// *InvalidTopKError, and an undefined Variant an *UnknownVariantError. On
// a live connection the query issues at the connection's next issue slot
// unless WithIssue overrides, because a real broadcast cannot be rewound
// to slot 0.
func (sys *System) prepare(req Request) (core.Options, error) {
	switch {
	case !req.Point.Finite():
		return core.Options{}, &InvalidPointError{Dataset: "query", Point: req.Point}
	case req.Variant == Transitive && !validAlgorithm(req.Algo):
		return core.Options{}, &UnknownAlgorithmError{Algo: req.Algo}
	case req.Variant == TopK && req.K < 1:
		return core.Options{}, &InvalidTopKError{K: req.K}
	case req.Variant < Transitive || req.Variant > TopK:
		return core.Options{}, &UnknownVariantError{Variant: req.Variant}
	}
	var issue int64
	if sys.live != nil {
		issue = sys.live.NextIssueSlot()
	}
	return applyOptions(issue, req.Options), nil
}

// respond converts a finished query's result into the public answer of
// its variant. On a live connection, a connection-level failure is
// translated onto the answer's error (see translate).
func (sys *System) respond(v Variant, res core.Result) Response {
	var resp Response
	errp := &resp.Result.Err
	if v == TopK {
		resp.TopK = fromCoreTopK(res)
		errp = &resp.TopK.Err
	} else {
		resp.Result, resp.SFirst = fromCore(res), res.SFirst
	}
	if sys.live != nil {
		*errp = translate(sys.live.Err(), *errp)
	}
	return resp
}

// Do executes one Request over the broadcast and returns its Response.
// It validates like every entry point (see prepare) and runs the query as
// one executor with a pooled scratch. Do is safe for concurrent use.
func (sys *System) Do(req Request) (Response, error) {
	o, err := sys.prepare(req)
	if err != nil {
		return Response{}, err
	}
	sc := scratchPool.Get().(*core.Scratch)
	defer scratchPool.Put(sc)
	o.Scratch = sc
	var res core.Result
	if req.Variant == Transitive {
		res, _ = core.Run(sys.env, core.Algo(req.Algo), req.Point, o) // prepare validated the algorithm
	} else {
		res = core.RunVariant(sys.env, core.Variant(req.Variant), req.K, req.Point, o)
	}
	return sys.respond(req.Variant, res), nil
}

// fromCoreTopK converts an internal top-k result to the v2 shape.
func fromCoreTopK(res core.Result) TopKResult {
	out := TopKResult{
		Found: res.Found,
		Metrics: Metrics{
			AccessTime:    res.Metrics.AccessTime,
			TuneIn:        res.Metrics.TuneIn,
			Lost:          res.Metrics.Lost,
			Retries:       res.Metrics.Retries,
			RecoverySlots: res.Metrics.RecoverySlots,
		},
		Radius: res.Radius,
		Err:    publicErr(res.Err),
	}
	if len(res.Pairs) > 0 {
		out.Pairs = make([]AnswerPair, len(res.Pairs))
		for i, pr := range res.Pairs {
			out.Pairs[i] = AnswerPair{
				S: pr.S.Point, R: pr.R.Point,
				SID: pr.S.ID, RID: pr.R.ID,
				Dist: pr.Dist,
			}
		}
	}
	return out
}
