package tnnbcast

// Shared-cycle multi-client batches. A broadcast's defining property is
// that one transmission serves arbitrarily many listeners; QueryBatch
// puts that property in the API. All requests of one batch run against
// the SAME broadcast cycles — the System's channels with their configured
// phases — each with its own query point, algorithm or variant, issue
// slot, and options. internal/session's workers run the clients one at a
// time to completion; clients share only the broadcast, so the order in
// which they run cannot change what any of them receives.
//
// Determinism guarantees:
//
//   - Per-client Responses are bit-identical to calling System.Do once
//     per request, regardless of batch size, batch composition, or worker
//     count (clients share only the immutable broadcast, so they cannot
//     perturb each other).
//   - With WithBatchWorkers(1) the execution order is deterministic as
//     well: clients run one after another in input order. With more
//     workers, each worker takes the next unstarted client as it finishes
//     one, so the client→worker assignment varies between runs —
//     Responses are unaffected.
//
// When batch beats sequential: in broadcast time, always — N overlapped
// clients complete within roughly one access-time span instead of N of
// them, which is the paper's million-user scaling argument. In wall-clock
// simulation time, QueryBatch additionally fans clients across CPUs
// (WithBatchWorkers), whereas sequential Do calls serialize.

import (
	"errors"
	"runtime"

	"tnnbcast/internal/core"
	"tnnbcast/internal/session"
)

// BatchOption configures a QueryBatch call.
type BatchOption func(*batchConfig)

type batchConfig struct {
	workers int
}

// WithBatchWorkers sets how many goroutines the batch fans its clients
// across: any n <= 0 selects GOMAXPROCS (the default), and 1 runs the
// clients one after another in input order. Per-client Responses are
// identical for every value.
func WithBatchWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// QueryBatch answers many clients' requests as one shared-cycle session
// and returns their Responses in input order. Every request is admitted
// as Do admits it before any client runs; the first one that fails, in
// input order, fails the batch with Do's typed error. Batch clients share
// one timeline that starts at slot 0, so a negative issue slot fails the
// batch with *InvalidIssueError naming the request's index.
func (sys *System) QueryBatch(reqs []Request, opts ...BatchOption) ([]Response, error) {
	cfg := batchConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	queries := make([]session.Query, len(reqs))
	for i, req := range reqs {
		o, err := sys.prepare(req)
		if err != nil {
			return nil, err
		}
		// The public Algorithm and Variant values are the internal ids:
		// built-ins by construction, registered strategies because
		// RegisterAlgorithm returns the core id.
		queries[i] = session.Query{Point: req.Point, Algo: core.Algo(req.Algo),
			Variant: core.Variant(req.Variant), K: req.K, Opt: o}
	}
	results, err := session.New(sys.env, cfg.workers).Run(queries)
	if err != nil {
		var iss *session.InvalidIssueError
		if errors.As(err, &iss) {
			return nil, &InvalidIssueError{Client: iss.Client, Issue: iss.Issue}
		}
		return nil, err
	}
	out := make([]Response, len(reqs))
	for i, res := range results {
		out[i] = sys.respond(reqs[i].Variant, res)
	}
	return out, nil
}
