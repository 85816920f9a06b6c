package tnnbcast

// Shared-cycle multi-client sessions. A broadcast's defining property is
// that one transmission serves arbitrarily many listeners; Session and
// QueryBatch put that property in the API. All clients of one session run
// against the SAME broadcast cycles — the System's channels with their
// configured phases — each with its own query point, algorithm, issue
// slot, and options. internal/session's workers run the clients one at a
// time to completion; clients share only the broadcast, so the order in
// which they run cannot change what any of them receives.
//
// Determinism guarantees:
//
//   - Per-client Results are bit-identical to calling System.Query once
//     per client with the same arguments, regardless of batch size, batch
//     composition, or worker count (clients share only the immutable
//     broadcast, so they cannot perturb each other).
//   - With WithBatchWorkers(1) the execution order is deterministic as
//     well: clients run one after another in admission order. With more
//     workers, each worker takes the next unstarted client as it finishes
//     one, so the client→worker assignment varies between runs — Results
//     are unaffected.
//
// When batch beats sequential: in broadcast time, always — N overlapped
// clients complete within roughly one access-time span instead of N of
// them, which is the paper's million-user scaling argument. In wall-clock
// simulation time, QueryBatch additionally fans clients across CPUs
// (WithBatchWorkers), whereas sequential Query calls serialize.

import (
	"errors"
	"runtime"

	"tnnbcast/internal/core"
	"tnnbcast/internal/session"
)

// ClientQuery describes one client's query within a batch.
type ClientQuery struct {
	// Point is the client's location (the TNN query point).
	Point Point
	// Algo selects the processing algorithm for this client.
	Algo Algorithm
	// Opts are the client's per-query options (WithIssue, WithANN, …).
	Opts []QueryOption
}

// BatchOption configures a Session or QueryBatch call.
type BatchOption func(*batchConfig)

type batchConfig struct {
	workers int
}

// WithBatchWorkers sets how many goroutines the session fans its clients
// across: any n <= 0 selects GOMAXPROCS (the default), and 1 runs the
// clients one after another in admission order. Per-client Results are
// identical for every value.
func WithBatchWorkers(n int) BatchOption {
	return func(c *batchConfig) { c.workers = n }
}

// Session is an open shared-cycle multi-client session: admit any number
// of clients with Add, then execute them concurrently against the
// System's broadcast with Run. A Session is not safe for concurrent use;
// run one per goroutine (they may share the System).
type Session struct {
	sys     *System
	workers int
	queries []session.Query
}

// NewSession opens a session over the system's broadcast.
func (sys *System) NewSession(opts ...BatchOption) *Session {
	cfg := batchConfig{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	return &Session{sys: sys, workers: cfg.workers}
}

// Add admits one client and returns its index — the position of its
// Result in the slice Run returns. It validates like Do: an unregistered
// Algorithm panics with *UnknownAlgorithmError, and a negative issue slot
// (sessions share one timeline starting at slot 0) panics with
// *InvalidIssueError (Add's legacy signature has no error result).
func (s *Session) Add(p Point, algo Algorithm, opts ...QueryOption) int {
	if !validAlgorithm(algo) {
		panic(&UnknownAlgorithmError{Algo: algo})
	}
	opt := applyOptions(opts)
	if opt.Issue < 0 {
		panic(&InvalidIssueError{Client: len(s.queries), Issue: opt.Issue})
	}
	// The public Algorithm values and the internal core.Algo ids are the
	// same registry: built-ins by construction, registered strategies
	// because RegisterAlgorithm returns the core id.
	s.queries = append(s.queries, session.Query{Point: p, Algo: core.Algo(algo), Opt: opt})
	return len(s.queries) - 1
}

// Len returns the number of admitted clients not yet run.
func (s *Session) Len() int { return len(s.queries) }

// Run executes every admitted client to completion against the shared
// cycles and returns their Results in admission order. The admitted set is
// cleared; the session can be reused for a new batch.
func (s *Session) Run() []Result {
	queries := s.queries
	s.queries = nil
	eng := session.New(s.sys.env, s.workers)
	results, err := eng.Run(queries)
	if err != nil {
		// Unreachable: Add validated every issue slot. Matches Add's
		// panic-on-invalid contract if a future check lands engine-side,
		// translated to the public error type callers can recover on.
		var iss *session.InvalidIssueError
		if errors.As(err, &iss) {
			panic(&InvalidIssueError{Client: iss.Client, Issue: iss.Issue})
		}
		panic(err)
	}
	out := make([]Result, len(queries))
	for i, res := range results {
		out[i] = fromCore(res)
	}
	return out
}

// QueryBatch answers many clients' TNN queries as one shared-cycle
// session and returns their Results in input order. It is equivalent to —
// and bit-identical with — calling Query once per client, but all clients
// overlap on the same broadcast cycles and the simulation parallelizes
// across workers.
func (sys *System) QueryBatch(queries []ClientQuery, opts ...BatchOption) []Result {
	s := sys.NewSession(opts...)
	for _, q := range queries {
		s.Add(q.Point, q.Algo, q.Opts...)
	}
	return s.Run()
}
