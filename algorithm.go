package tnnbcast

// Pluggable query algorithms. The four paper algorithms are registered
// built-ins of an open registry; external packages register new
// strategies with RegisterAlgorithm and the returned Algorithm value is
// selectable everywhere a built-in is — every Request entry point (Do,
// Start, QueryBatch, Query), the experiment harness
// (experiments.Config.Algos), and the tnnbench/tnnquery CLIs.
//
// A strategy is an Executor factory. The simplest useful strategies
// compose the built-ins through ExecEnv.Exec — pick an algorithm
// per query point, impose a slot budget, or fall back when one execution
// fails — without touching broadcast internals; see the how-to in the
// README's "Query API v2" section.

import (
	"tnnbcast/internal/client"
	"tnnbcast/internal/core"
	"tnnbcast/internal/rtree"
)

// Executor is one TNN query execution as a resumable process — the v2
// engine seam. Peek reports the next broadcast slot at which the
// execution wants to act, Step performs exactly one action (download or
// prune one candidate, or the terminal join), and Result is valid once
// Done. Cursor exposes the same process with streaming events; the
// session engine's workers each drive one Executor at a time to
// completion on the shared broadcast.
type Executor interface {
	Peek() (slot int64, done bool)
	Step()
	Done() bool
	Result() Result
}

// AlgorithmSpec is a pluggable TNN query-processing strategy.
type AlgorithmSpec interface {
	// Name is the algorithm's unique display name; a case-insensitive
	// match of it (e.g. in AlgorithmByName) resolves back to the
	// registered Algorithm value.
	Name() string
	// NewExecutor starts one query execution at p. It is called once per
	// query, possibly from concurrent goroutines with distinct envs.
	NewExecutor(env *ExecEnv, p Point) Executor
}

// RegisterAlgorithm adds a strategy to the algorithm registry and returns
// the Algorithm value that selects it in every entry point. It panics on
// a duplicate or empty name — registration is program wiring, typically
// done from an init function or test setup.
func RegisterAlgorithm(spec AlgorithmSpec) Algorithm {
	id, err := core.Register(core.AlgoSpec{
		Name: spec.Name(),
		New: func(env core.Env, p Point, opt core.Options) core.Executor {
			e := &ExecEnv{env: env, opt: opt}
			return coreExec{spec.NewExecutor(e, p)}
		},
	})
	if err != nil {
		panic(err)
	}
	return Algorithm(id)
}

// AlgorithmByName resolves an algorithm's display name, or its short
// alias for the built-ins (window, double, hybrid, approx), to its
// Algorithm value. Matching is case-insensitive.
func AlgorithmByName(name string) (Algorithm, bool) {
	a, ok := core.AlgoByName(name)
	return Algorithm(a), ok
}

// Algorithms returns the display names of all registered algorithms —
// the four built-ins followed by RegisterAlgorithm additions — indexed by
// their Algorithm value.
func Algorithms() []string { return core.AlgoNames() }

// ExecEnv is the per-query environment an AlgorithmSpec's executor runs
// in: the broadcast system under query and the query's options. It is
// valid for the lifetime of the execution and must not be shared across
// queries.
type ExecEnv struct {
	env  core.Env
	opt  core.Options
	used bool // the query's scratch is checked out to the first sub-execution
}

// Region returns the service region the system assumes.
func (e *ExecEnv) Region() Rect { return e.env.Region }

// Issue returns the slot at which the query was issued (WithIssue).
func (e *ExecEnv) Issue() int64 { return e.opt.Issue }

// DatasetSizes returns the object counts of the S and R datasets.
func (e *ExecEnv) DatasetSizes() (s, r int) {
	return e.env.ChS.Index().Tree().Count, e.env.ChR.Index().Tree().Count
}

// Exec starts a sub-execution of any registered algorithm at p over the
// same broadcast, issue slot, and query options — the composition
// primitive for custom strategies (delegate outright, race phases under a
// slot budget, pick per query point). Each call creates an independent
// execution with its own receivers: its metrics accumulate separately and
// the parent strategy decides how to combine them in its own Result.
func (e *ExecEnv) Exec(p Point, algo Algorithm) (Executor, error) {
	opt := e.opt
	if e.used {
		// Only the first sub-execution may use the query's scratch: a
		// QueryExec reset reclaims every scratch slot, which would rip the
		// receivers out from under a sibling still running.
		opt.Scratch = nil
	}
	ex, ok := core.NewExec(e.env, core.Algo(algo), p, opt)
	if !ok {
		return nil, &UnknownAlgorithmError{Algo: algo}
	}
	e.used = true
	return pubExec{ex}, nil
}

// coreExec adapts a public Executor to the internal executor interface
// (session engine, registry) by converting its Result.
type coreExec struct{ ex Executor }

func (a coreExec) Peek() (int64, bool) { return a.ex.Peek() }
func (a coreExec) Step()               { a.ex.Step() }
func (a coreExec) Done() bool          { return a.ex.Done() }
func (a coreExec) Result() core.Result { return toCore(a.ex.Result()) }

// pubExec adapts an internal executor to the public interface.
type pubExec struct{ ex core.Executor }

func (a pubExec) Peek() (int64, bool) { return a.ex.Peek() }
func (a pubExec) Step()               { a.ex.Step() }
func (a pubExec) Done() bool          { return a.ex.Done() }
func (a pubExec) Result() Result      { return fromCore(a.ex.Result()) }

// toCore converts a public Result back to the internal shape (the inverse
// of fromCore on the fields the public API carries).
func toCore(r Result) core.Result {
	return core.Result{
		Pair: core.Pair{
			S:    rtree.Entry{Point: r.S, ID: r.SID},
			R:    rtree.Entry{Point: r.R, ID: r.RID},
			Dist: r.Dist,
		},
		Found:          r.Found,
		Metrics:        client.Metrics{AccessTime: r.AccessTime, TuneIn: r.TuneIn},
		EstimateTuneIn: r.EstimateTuneIn,
		FilterTuneIn:   r.FilterTuneIn,
		Radius:         r.Radius,
		Case:           core.HybridCase(r.Case),
	}
}

// validAlgorithm reports whether a is registered (built-in or custom).
func validAlgorithm(a Algorithm) bool {
	if a >= Window && a <= Approximate {
		return true
	}
	_, ok := core.Lookup(core.Algo(a))
	return ok
}
