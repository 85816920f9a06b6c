// Package session is the shared-cycle multi-client engine: it runs many
// TNN queries against ONE pair of broadcast channel feeds. This is the
// operational meaning of the paper's system model — a broadcast cycle
// costs the server the same whether one client or a million are tuned in,
// so every client tunes in on the same slot timeline instead of the
// cycles being replayed once per query.
//
// Execution model. Clients share only the immutable broadcast, and a
// reception is a pure function of (program, fault seed, slot), so the
// order in which the engine steps its clients cannot change any Result.
// Each worker therefore runs one client at a time to completion: it takes
// the next query from the shared stream, drives one pooled execution state
// machine and scratch through the same peek/step loop as core.Run, emits
// the Result, and takes the next query. A client's working set stays hot
// for its whole lifetime.
//
// Determinism. Per-client Results are bit-identical to running the same
// queries one at a time through core.Run (core.RunVariant for a
// Section-7 variant), for every worker count. Workers
// read the feeds through a per-worker loss mark (broadcast.MemoFeed) that
// only shortens fault evaluation, which cannot change what any client
// receives. With one worker the emits also fire in stream order.
//
// Cost model. A worker holds one client's execution state at a time, so
// the engine's memory is proportional to the worker count — independent
// of the stream length and of how many clients overlap on the timeline. A
// client costs what core.Run costs on the worker's feeds, plus one
// mutex-guarded pull from the stream.
//
//tnn:deterministic
package session

import (
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
)

// Query is one client's TNN query in a session: its query point, the
// algorithm it runs (any id registered with the core algorithm registry,
// built-in or custom), the query variant (the zero value is the paper's
// transitive query; the Section-7 variants ignore Algo, and K is TopK's
// result count), and its per-client options. The Options' Scratch field
// is engine-owned and ignored if set.
//
// Admissible issue slots: Opt.Issue must be >= 0 — slot 0 is the start of
// the shared broadcast timeline, and a client tunes in at its issue slot.
// Negative issue slots are rejected with *InvalidIssueError. Duplicate and
// far-future issue slots are fine: any number of clients may tune in at
// the same slot, and the stream need not be sorted by issue slot.
type Query struct {
	Point   geom.Point
	Algo    core.Algo
	Variant core.Variant
	K       int
	Opt     core.Options
}

// InvalidIssueError reports a query whose issue slot lies outside the
// admissible range documented on Query.
type InvalidIssueError struct {
	// Client is the query's position in the input order.
	Client int
	// Issue is the rejected issue slot.
	Issue int64
}

func (e *InvalidIssueError) Error() string {
	return fmt.Sprintf("session: client %d has negative issue slot %d (sessions run on the shared timeline starting at slot 0)",
		e.Client, e.Issue)
}

// Stats reports one run's execution counters.
type Stats struct {
	// Clients is the number of clients taken from the stream (and,
	// absent an error, completed).
	Clients int
	// Steps is the total number of execution steps (Executor.Step calls)
	// across all workers — the unit the session benchmarks report
	// throughput in.
	Steps int64
	// PeakLive is the peak number of concurrently live clients. A worker
	// runs one client at a time, so this is the number of workers that
	// ran at least one client: at most the worker count.
	PeakLive int
	// Lost, Retries, and RecoverySlots aggregate the loss accounting of
	// every completed client's Result (see client.Metrics). All zero on
	// lossless feeds; deterministic for a given fault seed because faults
	// are a pure function of (seed, slot) on the shared medium.
	Lost, Retries, RecoverySlots int64
	// Failed counts clients whose Result carries a non-nil Err — queries
	// that gave up on a dead channel after the retry budget.
	Failed int
}

// Engine runs batches of concurrent client queries over one broadcast
// environment. It is immutable and safe for concurrent Run calls.
type Engine struct {
	env     core.Env
	workers int
}

// New creates an engine over the environment. workers is the number of
// goroutines a Run fans its clients across: any value <= 0 means
// GOMAXPROCS, and 1 runs every client on the calling goroutine in stream
// order. Because clients are independent, the per-client Results are
// identical for every worker count.
func New(env core.Env, workers int) *Engine {
	return &Engine{env: env, workers: workers}
}

// Run runs all queries against the shared feeds and returns their Results
// in input order. It is RunStream over the slice with the Results
// collected. A query with a negative issue slot aborts the run with
// *InvalidIssueError once the stream reaches it.
func (e *Engine) Run(queries []Query) ([]core.Result, error) {
	results := make([]core.Result, len(queries))
	workers := e.resolveWorkers()
	if workers > len(queries) {
		workers = max(len(queries), 1)
	}
	_, err := e.runStream(workers, slices.Values(queries), func(i int, r core.Result) {
		results[i] = r
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunStream runs a stream of queries against the shared feeds. Each
// worker takes the next query from the stream, runs it to completion, and
// calls emit with the client's position in the stream and its Result
// before it takes another, so memory is bounded by the worker count, not
// by the stream length.
//
// With one worker, emit is called on the calling goroutine in stream
// order. With workers > 1, emit is called concurrently from the worker
// goroutines and must be safe for concurrent use. Workers pull greedily
// from the shared stream, so the client→worker assignment and the order
// of emits across workers are NOT deterministic — but per-client Results
// are, for every worker count.
//
// A query with a negative issue slot poisons the stream: no further
// clients are taken, clients already taken run to completion (their emits
// still fire), and RunStream returns *InvalidIssueError.
func (e *Engine) RunStream(queries iter.Seq[Query], emit func(client int, res core.Result)) (Stats, error) {
	return e.runStream(e.resolveWorkers(), queries, emit)
}

func (e *Engine) resolveWorkers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

func (e *Engine) runStream(workers int, queries iter.Seq[Query], emit func(int, core.Result)) (Stats, error) {
	src := newSource(queries)
	defer src.close()

	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = newWorker(e.env, src, emit)
	}
	if workers == 1 {
		ws[0].run()
	} else {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.run()
			}(w)
		}
		wg.Wait()
	}

	var st Stats
	for _, w := range ws {
		if w.clients > 0 {
			st.PeakLive++
		}
		st.Steps += w.steps
		st.Clients += w.clients
		st.Lost += w.lost
		st.Retries += w.retries
		st.RecoverySlots += w.recovery
		st.Failed += w.failed
	}
	src.mu.Lock()
	err := src.err
	src.mu.Unlock()
	return st, err
}

// source is the shared, validated query stream. Workers take queries
// from it one at a time under the mutex; a validation failure poisons it.
type source struct {
	mu   sync.Mutex
	next func() (Query, bool)
	stop func()
	n    int   // queries pulled so far
	err  error // set when a query fails validation; poisons the stream
}

func newSource(queries iter.Seq[Query]) *source {
	s := new(source)
	s.next, s.stop = iter.Pull(queries)
	return s
}

// take pulls the next query and its stream position, validating it. ok
// is false once the stream is exhausted or poisoned.
func (s *source) take() (idx int, q Query, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, Query{}, false
	}
	if q, ok = s.next(); !ok {
		return 0, Query{}, false
	}
	idx = s.n
	s.n++
	if q.Opt.Issue < 0 {
		s.err = &InvalidIssueError{Client: idx, Issue: q.Opt.Issue}
		return 0, Query{}, false
	}
	return idx, q, true
}

func (s *source) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stop()
}

// worker runs queries from the shared stream one at a time, each to
// completion, on one pooled execution state machine and scratch, reading
// the shared feeds through its own loss marks.
type worker struct {
	env  core.Env
	src  *source
	emit func(int, core.Result)

	exec    core.QueryExec
	scratch core.Scratch

	clients  int
	steps    int64
	lost     int64
	retries  int64
	recovery int64
	failed   int
}

func newWorker(env core.Env, src *source, emit func(int, core.Result)) *worker {
	w := &worker{src: src, emit: emit}
	// The loss marks are per worker: a mark is single-threaded state, and
	// the underlying feeds stay shared and immutable.
	w.env = env
	w.env.ChS = broadcast.NewMemoFeed(env.ChS)
	w.env.ChR = broadcast.NewMemoFeed(env.ChR)
	return w
}

// run pulls the next query, drives it to completion with the same
// peek/step loop as core.Run, emits its Result, and pulls again — until
// the stream is dry. Built-in algorithms and the Section-7 variants run on
// the worker's pooled QueryExec (core.Exec); a custom executor borrows the
// worker's scratch just as the QueryExec does.
func (w *worker) run() {
	for {
		idx, q, ok := w.src.take()
		if !ok {
			return
		}
		opt := q.Opt
		opt.Scratch = &w.scratch
		ex, ok := core.Exec(&w.exec, w.env, q.Algo, q.Variant, q.K, q.Point, opt)
		if !ok {
			panic(fmt.Sprintf("session: unregistered algorithm %d", q.Algo))
		}
		for !ex.Done() {
			ex.Step()
			w.steps++
		}
		res := ex.Result()
		w.clients++
		w.lost += res.Metrics.Lost
		w.retries += res.Metrics.Retries
		w.recovery += res.Metrics.RecoverySlots
		if res.Err != nil {
			w.failed++
		}
		w.emit(idx, res)
	}
}
