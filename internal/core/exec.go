package core

// This file makes one TNN query a RESUMABLE process. QueryExec is the
// estimate–filter execution unrolled into an explicit state machine: Peek
// reports the next slot at which the query wants to act, Step performs
// exactly one action. Every driver — core.Run, the session engine's
// workers, the streaming Cursor — runs it with the same trivial
// peek/step loop. The same machine answers the paper's four algorithms
// and the two-dataset Section-7 variants (unordered, round trip, top-k),
// which differ only in how the estimate pair becomes a radius and in the
// terminal join. Because clients share only the immutable broadcast
// programs, one query's trajectory never depends on which other queries
// ran before it or beside it.

import (
	"fmt"
	"math"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
)

// Algo identifies one of the paper's four TNN algorithms. It mirrors the
// public tnnbcast.Algorithm values so the session layer can carry the
// choice without importing the root package.
type Algo int

const (
	// AlgoWindow is the Window-Based-TNN-Search baseline of Zheng–Lee–Lee,
	// adapted to multiple channels: s = p.NN(S) first, then r = s.NN(R),
	// which cannot start earlier because its query point is s; the
	// filter-phase range queries run in parallel.
	AlgoWindow Algo = iota
	// AlgoDouble is the Double-NN-Search algorithm (Algorithm 1): p.NN(S)
	// and p.NN(R) in parallel, radius dis(p,s) + dis(s,r), then the two
	// range queries in parallel and the join.
	AlgoDouble
	// AlgoHybrid is the Hybrid-NN-Search algorithm: both NN searches start
	// in parallel, and the first to finish redirects the other — Case 2
	// retargets the R search to s = p.NN(S), Case 3 switches the S search
	// to the transitive metric toward r = p.NN(R). Delayed pruning keeps
	// the redirects correct.
	AlgoHybrid
	// AlgoApprox is the Approximate-TNN-Search baseline: no estimate
	// phase, radius r_1(S) + r_1(R) from Eq. 1. Fastest in access time,
	// but the radius may miss the answer (Found == false, Table 3).
	AlgoApprox
)

// Builtin reports whether a is one of the four built-in paper algorithms —
// the ones whose executions are plain QueryExec state machines that a
// session can pool and Reset in place. Registered strategies go through
// their own factories instead.
func (a Algo) Builtin() bool { return a >= AlgoWindow && a <= AlgoApprox }

func (a Algo) String() string {
	switch a {
	case AlgoWindow:
		return "Window-Based"
	case AlgoDouble:
		return "Double-NN"
	case AlgoHybrid:
		return "Hybrid-NN"
	case AlgoApprox:
		return "Approximate-TNN"
	default:
		if spec, ok := Lookup(a); ok {
			return spec.Name
		}
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Variant selects the query a QueryExec answers. It mirrors the public
// tnnbcast.Variant values.
type Variant int

const (
	// Transitive is the paper's TNN query, answered by the chosen Algo.
	Transitive Variant = iota
	// Unordered visits one object of each dataset in the shorter order.
	Unordered
	// RoundTrip minimizes dis(p,s) + dis(s,r) + dis(r,p).
	RoundTrip
	// TopK returns the k best pairs by transitive distance.
	TopK
)

// Phase is the coarse, externally observable position of a query
// execution, the granularity of the paper's estimate/filter tune-in
// split. The Window variant's two sequential NN searches both count as
// the estimate phase; the terminal join and answer retrieval count as the
// filter phase (their data pages are filter tune-in).
type Phase int

const (
	// PhaseEstimate covers the NN searches that determine the search
	// radius. Approximate-TNN skips it entirely.
	PhaseEstimate Phase = iota
	// PhaseFilter covers the circular range queries, the local join, and
	// the answer-object retrieval.
	PhaseFilter
	// PhaseDone means the Result is final.
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseEstimate:
		return "estimate"
	case PhaseFilter:
		return "filter"
	default:
		return "done"
	}
}

// execPhase is the coarse position of a query execution. Every phase
// before phJoin runs searches.
type execPhase int

const (
	// phWinS: Window-Based, first NN search (p.NN(S)) running alone.
	phWinS execPhase = iota
	// phWinR: Window-Based, second NN search (s.NN(R)) running alone.
	phWinR
	// phEstimate: Double/Hybrid, both NN searches running in parallel.
	phEstimate
	// phTopK: top-k, both k-NN searches running in parallel.
	phTopK
	// phFilter: the two circular range queries running in parallel.
	phFilter
	// phJoin: ranges done; the local join and the optional answer-object
	// retrieval are the one remaining action.
	phJoin
	// phDone: the Result is final.
	phDone
)

// QueryExec is one TNN query as a stepwise process, an Executor driven
// by any peek/step loop. Obtain one with Reset, or ResetVariant for the
// Section-7 variants; when Peek reports done, Result holds the outcome.
//
// A QueryExec holds its Options.Scratch for the lifetime of the query, so
// concurrently live executions need one Scratch each; queries run one
// after another (a session worker) can recycle a single scratch.
type QueryExec struct {
	env     Env
	p       geom.Point
	algo    Algo
	variant Variant
	k       int // TopK's result count
	opt     Options

	rxS, rxR *client.Receiver
	ns, nr   *nnSearch
	knn      [2]*knnSearch // TopK's estimate searches, S then R
	qs, qr   *rangeSearch
	walks    [2]*airWalk // the running phase's searches, S then R; nil if idle

	phase   execPhase
	caseTag HybridCase

	radius    float64
	incumbent Pair
	haveInc   bool
	estimate  int64 // estimate-phase tune-in, captured at filter start

	res Result
}

// Reset (re)initializes the execution in place for a new TNN query by
// built-in algorithm algo: scratch reclaimed, receivers issued,
// estimate-phase searches created. The previous execution's state is
// discarded.
func (ex *QueryExec) Reset(env Env, algo Algo, p geom.Point, opt Options) {
	ex.ResetVariant(env, algo, Transitive, 0, p, opt)
}

// ResetVariant is Reset for query variant v; k is TopK's result count.
// The Section-7 variants run the Double-NN strategy (both estimate
// searches start at once), so algo matters only for Transitive.
func (ex *QueryExec) ResetVariant(env Env, algo Algo, v Variant, k int, p geom.Point, opt Options) {
	if v != Transitive {
		algo = AlgoDouble
	}
	opt.Scratch.reset()
	*ex = QueryExec{env: env, p: p, algo: algo, variant: v, k: k, opt: opt}
	ex.rxS = opt.Scratch.receiver(env.ChS, opt.Issue)
	ex.rxR = opt.Scratch.receiver(env.ChR, opt.Issue)
	opt.applyTrace(ex.rxS, ex.rxR)
	switch {
	case v == TopK:
		// Top-k generalizes the Double-NN estimate: one k-NN search per
		// channel from p.
		ex.knn[0] = opt.Scratch.knnSearch(ex.rxS, p, k, opt.maxRetries())
		ex.knn[1] = opt.Scratch.knnSearch(ex.rxR, p, k, opt.maxRetries())
		ex.walks = [2]*airWalk{&ex.knn[0].airWalk, &ex.knn[1].airWalk}
		ex.phase = phTopK
	case algo == AlgoWindow:
		ex.ns = opt.Scratch.nnSearch(ex.rxS, p, opt.ANN.FactorS, opt.maxRetries())
		ex.walks = [2]*airWalk{&ex.ns.airWalk, nil}
		ex.phase = phWinS
	case algo == AlgoHybrid || algo == AlgoDouble:
		ex.ns = opt.Scratch.nnSearch(ex.rxS, p, opt.ANN.FactorS, opt.maxRetries())
		ex.nr = opt.Scratch.nnSearch(ex.rxR, p, opt.ANN.FactorR, opt.maxRetries())
		ex.walks = [2]*airWalk{&ex.ns.airWalk, &ex.nr.airWalk}
		ex.phase = phEstimate
	case algo == AlgoApprox:
		// No estimate phase: the radius comes from Eq. 1 directly.
		area := env.Region.Area()
		nS := env.ChS.Index().Tree().Count
		nR := env.ChR.Index().Tree().Count
		ex.radius = ApproxRadius(nS, 1, area) + ApproxRadius(nR, 1, area)
		ex.startFilter()
	default:
		panic("core: unknown algorithm")
	}
	ex.advance()
}

// run is drive for a QueryExec: the same peek/step loop with direct
// calls, which keep the execution off the heap.
func (ex *QueryExec) run() Result {
	for !ex.Done() {
		ex.Step()
	}
	return ex.Result()
}

// Done reports whether the execution has produced its final Result.
func (ex *QueryExec) Done() bool { return ex.phase == phDone }

// Scratch returns the scratch space the execution holds (nil when it runs
// without one). The session engine uses this to return a finished client's
// scratch to its pool the moment the client completes.
func (ex *QueryExec) Scratch() *Scratch { return ex.opt.Scratch }

// Result returns the query outcome; valid once Done.
func (ex *QueryExec) Result() Result { return ex.res }

// Phase reports the coarse execution phase, for streaming observers.
func (ex *QueryExec) Phase() Phase {
	switch ex.phase {
	case phWinS, phWinR, phEstimate, phTopK:
		return PhaseEstimate
	case phFilter, phJoin:
		return PhaseFilter
	default:
		return PhaseDone
	}
}

// Radius returns the search-range radius once the estimate phase has
// determined it (ok reports availability; Approximate-TNN has it from the
// start).
func (ex *QueryExec) Radius() (r float64, ok bool) {
	if ex.Phase() == PhaseEstimate {
		return 0, false
	}
	return ex.radius, true
}

// Now returns the later of the two receivers' local clocks — the slot at
// which client-local transitions (phase sync, join) conceptually happen.
//
//tnn:noalloc
func (ex *QueryExec) Now() int64 { return ex.clockMax() }

// clockMax returns the later of the two receivers' local clocks — the slot
// at which client-local work (phase sync, join) conceptually happens.
//
//tnn:noalloc
func (ex *QueryExec) clockMax() int64 {
	t := ex.rxS.Now()
	if ex.rxR.Now() > t {
		t = ex.rxR.Now()
	}
	return t
}

// Peek reports the next slot at which this query acts.
// advance() guarantees the current phase has runnable work (or is phDone),
// so Peek never reports a stale sub-process slot.
//
//tnn:noalloc
func (ex *QueryExec) Peek() (int64, bool) {
	switch ex.phase {
	case phWinS, phWinR, phEstimate, phTopK, phFilter:
		_, slot := earliest(ex.walks[:])
		return slot, false
	case phJoin:
		return ex.clockMax(), false
	default:
		return 0, true
	}
}

// Step performs exactly one action — download or prune one candidate
// during the searches, or the terminal join+retrieval — then folds any
// completed sub-phase into the next one.
//
//tnn:noalloc
func (ex *QueryExec) Step() {
	var i int // the stepped search's index in walks
	switch ex.phase {
	case phWinS, phWinR, phEstimate:
		if ex.algo == AlgoHybrid {
			// Redirect exactly once, at the moment one search finishes
			// while the other still runs (Hybrid-NN Cases 2 and 3).
			ex.hybridRedirect()
		}
		if i, _ = earliest(ex.walks[:]); i == 0 {
			ex.ns.Step()
		} else {
			ex.nr.Step()
		}
	case phTopK:
		i, _ = earliest(ex.walks[:])
		ex.knn[i].Step()
	case phFilter:
		if i, _ = earliest(ex.walks[:]); i == 0 {
			ex.qs.Step()
		} else {
			ex.qr.Step()
		}
	case phJoin:
		ex.joinAndRetrieve()
		return
	default:
		panic("core: Step on a finished query execution")
	}
	if ex.walks[i].finished {
		ex.advance() // only a finished search can end the phase
	}
}

// hybridRedirect applies the one-time Hybrid-NN redirect when exactly one
// of the two searches has finished with a result.
func (ex *QueryExec) hybridRedirect() {
	if ex.caseTag != CaseNone {
		return
	}
	_, sDone := ex.ns.Peek()
	_, rDone := ex.nr.Peek()
	if sDone && !rDone {
		if s, _, ok := ex.ns.result(); ok {
			ex.nr.retarget(s.Point)
			ex.caseTag = Case2
		}
	} else if rDone && !sDone {
		if r, _, ok := ex.nr.result(); ok {
			ex.ns.switchTransitive(r.Point)
			ex.caseTag = Case3
		}
	}
}

// advance folds completed sub-phases into their successors until the
// execution either has a runnable next action or is done. It performs only
// client-local work (result checks, phase synchronization, search
// creation) — never a download — so it is safe to run eagerly after Reset
// and after every Step. The loop re-evaluates because a transition can
// complete instantly (an empty dataset finishes its searches at creation).
func (ex *QueryExec) advance() {
	for ex.phase < phJoin {
		// Every phase before the join runs searches and ends when they all
		// have finished. Escalations are checked S before R so that the
		// reported channel is deterministic when both die.
		if i, _ := earliest(ex.walks[:]); i >= 0 {
			return
		}
		for i, w := range ex.walks {
			if w != nil && w.err != nil {
				ex.failWith([2]string{"S", "R"}[i], w.err)
				return
			}
		}
		switch ex.phase {
		case phWinS:
			s, _, ok := ex.ns.result()
			if !ok {
				ex.fail()
				return
			}
			// The second NN query starts only after the first finishes,
			// because its query point is the first one's result.
			ex.rxR.WaitUntil(ex.rxS.Now())
			ex.nr = ex.opt.Scratch.nnSearch(ex.rxR, s.Point, ex.opt.ANN.FactorR, ex.opt.maxRetries())
			ex.walks = [2]*airWalk{nil, &ex.nr.airWalk}
			ex.phase = phWinR

		case phWinR:
			r, _, okR := ex.nr.result()
			if !okR {
				ex.fail()
				return
			}
			s, _, _ := ex.ns.result()
			d := geom.Dist(ex.p, s.Point) + geom.Dist(s.Point, r.Point)
			ex.radius = d
			ex.incumbent = Pair{S: s, R: r, Dist: d}
			ex.haveInc = true
			ex.startFilter()

		case phEstimate:
			s, _, okS := ex.ns.result()
			r, _, okR := ex.nr.result()
			if !okS || !okR {
				ex.fail()
				return
			}
			// The search radius is the transitive distance of the pair the
			// estimate phase produced. For Hybrid, in Case 3 the S-side
			// search already minimized exactly this quantity; in Case 2 the
			// R-side minimized dis(s, ·), its variable part. A variant
			// bounds its own route through the same pair (Section 7: any
			// realizable route bounds the range).
			inc := Pair{S: s, R: r, Dist: geom.TransDist(ex.p, s.Point, r.Point)}
			ex.radius = inc.Dist
			switch ex.variant {
			case Unordered:
				ex.radius = math.Min(inc.Dist, geom.TransDist(ex.p, r.Point, s.Point))
			case RoundTrip:
				inc.Dist = tourLength(ex.p, s.Point, r.Point)
				ex.radius = inc.Dist
			}
			ex.incumbent = inc
			ex.haveInc = true
			ex.startFilter()

		case phTopK:
			ss, rs := ex.knn[0].results(), ex.knn[1].results()
			if len(ss) == 0 || len(rs) == 0 {
				ex.fail()
				return
			}
			ex.radius = topKRadius(ex.p, ss, rs)
			ex.startFilter()

		case phFilter:
			ex.phase = phJoin // the join is a real Step, not a transition
		}
	}
}

// startFilter opens the filter phase: capture the estimate-phase tune-in,
// synchronize the channels (the radius depends on both estimate results),
// and create the two circular range searches.
func (ex *QueryExec) startFilter() {
	ex.estimate = ex.rxS.Pages() + ex.rxR.Pages()
	t := ex.clockMax()
	ex.rxS.WaitUntil(t)
	ex.rxR.WaitUntil(t)
	w := geom.Circle{Center: ex.p, R: ex.radius}
	ex.qs = ex.opt.Scratch.rangeSearch(ex.rxS, w, ex.opt.maxRetries())
	ex.qr = ex.opt.Scratch.rangeSearch(ex.rxR, w, ex.opt.maxRetries())
	ex.walks = [2]*airWalk{&ex.qs.airWalk, &ex.qr.airWalk}
	ex.phase = phFilter
}

// fail finalizes a query whose estimate phase produced no result (possible
// only on empty datasets): metrics are whatever was spent, Found is false.
func (ex *QueryExec) fail() {
	ex.res = Result{Metrics: client.Collect(ex.rxS, ex.rxR)}
	ex.phase = phDone
}

// failWith finalizes a query whose channel died: the search escalated
// after MaxRetries consecutive faulted receptions. The metrics account
// everything spent (including the dead receptions), Found is false, and
// Err carries the tagged ChannelError.
func (ex *QueryExec) failWith(channel string, cerr *broadcast.ChannelError) {
	cerr.Channel = channel
	ex.res = Result{Metrics: client.Collect(ex.rxS, ex.rxR), Err: cerr}
	ex.phase = phDone
}

// joinAndRetrieve is the terminal action: the client-side join over the
// filtered candidates (the variant's own), the optional download of the
// answer pair's data pages, and the metric collection.
func (ex *QueryExec) joinAndRetrieve() {
	var res Result
	var pair Pair
	ok := true
	fs, fr := &ex.qs.found, &ex.qr.found
	h := ex.opt.Scratch.joinHeap()
	switch ex.variant {
	case Transitive, RoundTrip:
		var seed *Pair
		if ex.haveInc {
			seed = &ex.incumbent
		}
		h.join(ex.p, fs, fr, 1, seed, ex.variant == RoundTrip)
		pair, ok = h.top()
	case Unordered:
		pair, res.SFirst = joinUnordered(ex.p, ex.incumbent, fs, fr, h)
	case TopK:
		if h.join(ex.p, fs, fr, ex.k, nil, false); len(*h) == 0 {
			ex.fail()
			return
		}
		res.Pairs = h.sorted()
		pair = res.Pairs[0]
	}

	var err error
	if ok && !ex.opt.SkipDataRetrieval {
		// The client dozes until the answer objects' data pages are on air
		// and downloads the associated attributes, one object per channel.
		// Retrieval is reliable: a faulted data page retries at the
		// object's next broadcast, escalating like the searches do. On a
		// lossless feed this is exactly the old single DownloadObject. The
		// answer pair is already known at this point, so an escalation
		// keeps it — only the attribute retrieval is reported failed.
		t := ex.clockMax()
		ex.rxS.WaitUntil(t)
		ex.rxR.WaitUntil(t)
		if _, cerr := ex.rxS.DownloadObjectReliable(pair.S.ID, ex.opt.maxRetries()); cerr != nil {
			cerr.Channel = "S"
			err = cerr
		} else if _, cerr := ex.rxR.DownloadObjectReliable(pair.R.ID, ex.opt.maxRetries()); cerr != nil {
			cerr.Channel = "R"
			err = cerr
		}
	}

	m := client.Collect(ex.rxS, ex.rxR)
	res.Pair, res.Found, res.Metrics = pair, ok, m
	res.Radius, res.Case, res.Err = ex.radius, ex.caseTag, err
	res.EstimateTuneIn, res.FilterTuneIn = ex.estimate, m.TuneIn-ex.estimate
	ex.res = res
	ex.phase = phDone
}
