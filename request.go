package tnnbcast

// The v2 unified request pipeline. Every public query entry point —
// Query, QueryUnordered, QueryRoundTrip, the streaming Start,
// and (via the same validation and option application) Session.Add — is a
// thin wrapper over one Request→Do path that centralizes algorithm
// validation, option application, and scratch checkout. The wrappers
// produce bit-identical metrics to their pre-v2 selves; Do additionally
// surfaces typed errors the legacy signatures could only panic with.

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

// Response is the outcome of one Do call.
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

// applyOptions folds the functional options into the internal options
// struct — the single place every entry point builds its core.Options.
func applyOptions(opts []QueryOption) core.Options {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Do executes one Request over the broadcast and returns its Response.
// It is the unified pipeline behind every query entry point: an
// unregistered Algorithm yields an *UnknownAlgorithmError, an undefined
// Variant or a TopK K < 1 an error, and every variant runs as one query
// executor with a pooled scratch. Do is safe for concurrent use.
func (sys *System) Do(req Request) (Response, error) {
	if req.Variant == Transitive && !validAlgorithm(req.Algo) {
		return Response{}, &UnknownAlgorithmError{Algo: req.Algo}
	}
	if req.Variant == TopK && req.K < 1 {
		return Response{}, &InvalidTopKError{K: req.K}
	}
	o := applyOptions(req.Options)
	sc := scratchPool.Get().(*core.Scratch)
	defer scratchPool.Put(sc)
	o.Scratch = sc

	switch req.Variant {
	case Transitive:
		res, ok := core.Run(sys.env, core.Algo(req.Algo), req.Point, o)
		if !ok {
			// The algorithm was unregistered between validation and
			// dispatch — impossible today (the registry only grows), kept
			// as a loud guard.
			return Response{}, &UnknownAlgorithmError{Algo: req.Algo}
		}
		return Response{Result: fromCore(res)}, nil
	case Unordered, RoundTrip:
		res := core.RunVariant(sys.env, core.Variant(req.Variant), 0, req.Point, o)
		return Response{Result: fromCore(res), SFirst: res.SFirst}, nil
	case TopK:
		return Response{TopK: fromCoreTopK(core.RunVariant(sys.env, core.TopK, req.K, req.Point, o))}, nil
	default:
		return Response{}, &UnknownVariantError{Variant: req.Variant}
	}
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
