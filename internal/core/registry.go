package core

// The algorithm registry opens the query layer: an algorithm is a named
// factory for resumable query executions, the four paper algorithms are
// registered built-ins backed by QueryExec, and new strategies register
// at runtime.
// Everything above this package — the public Query/Do pipeline, the
// session engine, the experiment harness, the CLI tools — selects
// algorithms exclusively through Algo values resolved here, so a
// registered strategy is usable end to end without touching any of those
// layers.

import (
	"fmt"
	"strings"
	"sync"

	"tnnbcast/internal/geom"
)

// Executor is one query execution as a resumable process: Peek reports
// the next broadcast slot at which the execution wants to act, Step
// performs exactly one action, and Result is valid once Done. QueryExec
// (the paper's algorithms, the two-dataset variants and the k-channel
// chain) and every registered strategy are Executors, all driven by the
// same peek/step loop.
type Executor interface {
	Peek() (slot int64, done bool)
	Step()
	Done() bool
	Result() Result
}

// ExecFactory starts one query execution at p in env with the given
// options.
type ExecFactory func(env Env, p geom.Point, opt Options) Executor

// AlgoSpec describes one registered TNN algorithm.
type AlgoSpec struct {
	// Name is the canonical display name (e.g. "Double-NN"). Unique
	// case-insensitively.
	Name string
	// Alias is an optional short lookup name (e.g. "double"). Unique
	// case-insensitively; empty means no alias.
	Alias string
	// New starts one query execution.
	New ExecFactory
}

var algoReg = struct {
	sync.RWMutex
	specs  []AlgoSpec
	byName map[string]Algo
}{byName: make(map[string]Algo)}

// builtinFactory wraps a built-in algorithm as an ExecFactory.
func builtinFactory(a Algo) ExecFactory {
	return func(env Env, p geom.Point, opt Options) Executor {
		ex := new(QueryExec)
		ex.Reset(env, a, p, opt)
		return ex
	}
}

func init() {
	// Registration order fixes the ids; it must match the Algo constants.
	for _, s := range []struct {
		algo  Algo
		alias string
	}{
		{AlgoWindow, "window"},
		{AlgoDouble, "double"},
		{AlgoHybrid, "hybrid"},
		{AlgoApprox, "approx"},
	} {
		id, err := Register(AlgoSpec{Name: s.algo.String(), Alias: s.alias, New: builtinFactory(s.algo)})
		if err != nil || id != s.algo {
			panic(fmt.Sprintf("core: built-in registration broke: %v (id %d)", err, id))
		}
	}
}

// Register adds an algorithm to the registry and returns its Algo id
// (assigned sequentially after the built-ins). The name and alias must be
// non-empty/unique under case-insensitive comparison.
func Register(spec AlgoSpec) (Algo, error) {
	if spec.Name == "" {
		return 0, fmt.Errorf("core: algorithm spec needs a name")
	}
	if spec.New == nil {
		return 0, fmt.Errorf("core: algorithm %q needs an executor factory", spec.Name)
	}
	algoReg.Lock()
	defer algoReg.Unlock()
	keys := []string{strings.ToLower(spec.Name)}
	if spec.Alias != "" {
		keys = append(keys, strings.ToLower(spec.Alias))
	}
	for _, k := range keys {
		if _, dup := algoReg.byName[k]; dup {
			return 0, fmt.Errorf("core: algorithm name %q already registered", k)
		}
	}
	id := Algo(len(algoReg.specs))
	algoReg.specs = append(algoReg.specs, spec)
	for _, k := range keys {
		algoReg.byName[k] = id
	}
	return id, nil
}

// Lookup returns the spec registered under a.
func Lookup(a Algo) (AlgoSpec, bool) {
	algoReg.RLock()
	defer algoReg.RUnlock()
	if a < 0 || int(a) >= len(algoReg.specs) {
		return AlgoSpec{}, false
	}
	return algoReg.specs[a], true
}

// AlgoByName resolves a canonical name or alias (case-insensitive,
// surrounding space ignored) to its Algo id.
func AlgoByName(name string) (Algo, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	algoReg.RLock()
	defer algoReg.RUnlock()
	a, ok := algoReg.byName[key]
	return a, ok
}

// AlgoNames returns the canonical names of all registered algorithms in
// id order.
func AlgoNames() []string {
	algoReg.RLock()
	defer algoReg.RUnlock()
	names := make([]string, len(algoReg.specs))
	for i, s := range algoReg.specs {
		names[i] = s.Name
	}
	return names
}

// NewExec starts one execution of algorithm a, reporting ok == false for
// an unregistered id. Built-ins get a QueryExec; registered strategies go
// through their factory.
func NewExec(env Env, a Algo, p geom.Point, opt Options) (Executor, bool) {
	spec, ok := Lookup(a)
	if !ok {
		return nil, false
	}
	return spec.New(env, p, opt), true
}

// Exec starts query variant v (k is TopK's result count) at p: on qe when
// a QueryExec answers it — a built-in algorithm or any Section-7
// variant — and through the registry otherwise. ok is false for an
// unregistered algorithm.
func Exec(qe *QueryExec, env Env, a Algo, v Variant, k int, p geom.Point, opt Options) (ex Executor, ok bool) {
	if v != Transitive || a.Builtin() {
		qe.ResetVariant(env, a, v, k, p, opt)
		return qe, true
	}
	return NewExec(env, a, p, opt)
}

// Run executes algorithm a to completion with the single-client
// peek/step loop, reporting ok == false for an unregistered id. The four
// built-ins dispatch to a stack-allocated QueryExec, keeping the
// sequential hot path allocation-free with a Scratch.
func Run(env Env, a Algo, p geom.Point, opt Options) (Result, bool) {
	if a.Builtin() {
		var ex QueryExec
		ex.Reset(env, a, p, opt)
		return ex.run(), true
	}
	ex, ok := NewExec(env, a, p, opt)
	if !ok {
		return Result{}, false
	}
	return drive(ex), true
}

// RunVariant answers one two-dataset Section-7 query (v != Transitive) on
// the same loop; k is TopK's result count.
func RunVariant(env Env, v Variant, k int, p geom.Point, opt Options) Result {
	var ex QueryExec
	ex.ResetVariant(env, AlgoDouble, v, k, p, opt)
	return ex.run()
}

// drive is the peek/step loop every single-query driver runs: step until
// done, then read the result. QueryExec.run is the same loop with direct
// calls, so the hot path's execution stays on the caller's stack.
func drive(ex Executor) Result {
	for !ex.Done() {
		ex.Step()
	}
	return ex.Result()
}
