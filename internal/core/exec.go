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
	"tnnbcast/internal/rtree"
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

// chainVariant is the Section-7 chain query over k channels in visiting
// order (ResetChain): the Double-NN estimate with one NN search per
// channel, the estimate route's length as the radius, and the layered
// chainJoin. It is not a public variant; chains have their own entry
// point, ChainSystem.Query.
const chainVariant Variant = -1

// QueryExec is one TNN query as a stepwise process, an Executor driven
// by any peek/step loop. Obtain one with Reset, ResetVariant for the
// two-dataset Section-7 variants, or ResetChain for a chain; when Peek
// reports done, Result holds the outcome.
//
// The per-channel state lives in slices in channel order: S then R for
// the two-dataset queries, visiting order for a chain. A QueryExec holds
// its Options.Scratch, which backs those slices, for the lifetime of the
// query, so concurrently live executions need one Scratch each; queries
// run one after another (a session worker) can recycle a single scratch.
type QueryExec struct {
	p       geom.Point
	algo    Algo
	variant Variant
	k       int // TopK's result count
	opt     Options

	rxs   []*client.Receiver
	nns   []*nnSearch    // the estimate's NN searches; nil until started
	knn   [2]*knnSearch  // TopK's estimate searches, S then R
	rgs   []*rangeSearch // the filter's range searches
	walks []*airWalk     // the running phase's searches; nil if idle
	route []rtree.Entry  // a chain's estimate route

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
	ex.open(algo, v, k, p, opt, env.ChS, env.ChR)
	switch {
	case v == TopK:
		// Top-k generalizes the Double-NN estimate: one k-NN search per
		// channel from p.
		for i, rx := range ex.rxs {
			ex.knn[i] = opt.Scratch.knnSearch(rx, p, k, opt.maxRetries())
			ex.walks[i] = &ex.knn[i].airWalk
		}
		ex.phase = phTopK
	case algo == AlgoWindow:
		ex.nns[0] = opt.Scratch.nnSearch(ex.rxs[0], p, opt.ANN.FactorS, opt.maxRetries())
		ex.walks[0] = &ex.nns[0].airWalk
		ex.phase = phWinS
	case algo == AlgoHybrid || algo == AlgoDouble:
		ex.startEstimate()
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

// ResetChain (re)initializes the execution for a chain query at p across
// env's k channels in visiting order, Double-NN generalized: k parallel
// NN searches from p whose results chain into a realizable route, k
// parallel range queries with the route's length as radius, and the
// layered chainJoin. k = 2 steps exactly as Double-NN does. An
// environment without channels is done at once with a zero Result.
func (ex *QueryExec) ResetChain(env MultiEnv, p geom.Point, opt Options) {
	ex.open(AlgoDouble, chainVariant, 0, p, opt, env.Chs...)
	if len(ex.rxs) == 0 {
		ex.phase = phDone
		return
	}
	ex.startEstimate()
	ex.advance()
}

// open discards the previous execution, reclaims the scratch and issues
// one receiver per feed, traced when the options ask for it.
func (ex *QueryExec) open(algo Algo, v Variant, k int, p geom.Point, opt Options, feeds ...broadcast.Feed) {
	opt.Scratch.reset()
	*ex = QueryExec{p: p, algo: algo, variant: v, k: k, opt: opt}
	ex.rxs, ex.nns, ex.rgs, ex.walks = opt.Scratch.channels(len(feeds))
	for i, ch := range feeds {
		ex.rxs[i] = opt.Scratch.receiver(ch, opt.Issue)
	}
	ex.applyTrace()
}

// channelTag names channel i in errors and traces: "S" and "R" for the
// two-dataset queries, "ch0", "ch1", … in visiting order for a chain.
func (ex *QueryExec) channelTag(i int) string {
	if ex.variant == chainVariant {
		return fmt.Sprintf("ch%d", i)
	}
	return [2]string{"S", "R"}[i]
}

// applyTrace wires Options.Trace/TraceFault into the receivers.
func (ex *QueryExec) applyTrace() {
	trace, fault := ex.opt.Trace, ex.opt.TraceFault
	if trace == nil && fault == nil {
		return
	}
	for i, rx := range ex.rxs {
		tag := ex.channelTag(i)
		if trace != nil {
			rx.SetTrace(func(slot int64, pg broadcast.Page) { trace(tag, slot, pg) })
		}
		if fault != nil {
			rx.SetFaultTrace(func(slot int64) { fault(tag, slot) })
		}
	}
}

// startEstimate opens the Double/Hybrid estimate phase: one NN search
// per channel from p, all running in parallel. The first channel uses
// the S-side ANN factor, every later one the R-side factor.
func (ex *QueryExec) startEstimate() {
	for i, rx := range ex.rxs {
		factor := ex.opt.ANN.FactorS
		if i > 0 {
			factor = ex.opt.ANN.FactorR
		}
		ex.nns[i] = ex.opt.Scratch.nnSearch(rx, ex.p, factor, ex.opt.maxRetries())
		ex.walks[i] = &ex.nns[i].airWalk
	}
	ex.phase = phEstimate
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

// Now returns the latest of the receivers' local clocks — the slot at
// which client-local transitions (phase sync, join) conceptually happen.
//
//tnn:noalloc
func (ex *QueryExec) Now() int64 {
	t := ex.rxs[0].Now()
	for _, rx := range ex.rxs[1:] {
		t = max(t, rx.Now())
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
		_, slot := earliest(ex.walks)
		return slot, false
	case phJoin:
		return ex.Now(), false
	default:
		return 0, true
	}
}

// Step performs exactly one action — download or prune one candidate
// during the searches, or the terminal join+retrieval — then folds any
// completed sub-phase into the next one. Each search step advances the
// search that acts at the earliest slot, the lowest channel on ties.
//
//tnn:noalloc
func (ex *QueryExec) Step() {
	var i int // the stepped search's channel
	switch ex.phase {
	case phWinS, phWinR, phEstimate:
		if ex.algo == AlgoHybrid {
			// Redirect exactly once, at the moment one search finishes
			// while the other still runs (Hybrid-NN Cases 2 and 3).
			ex.hybridRedirect()
		}
		i, _ = earliest(ex.walks)
		ex.nns[i].Step()
	case phTopK:
		i, _ = earliest(ex.walks)
		ex.knn[i].Step()
	case phFilter:
		i, _ = earliest(ex.walks)
		ex.rgs[i].Step()
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
	ns, nr := ex.nns[0], ex.nns[1]
	_, sDone := ns.Peek()
	_, rDone := nr.Peek()
	if sDone && !rDone {
		if s, _, ok := ns.result(); ok {
			nr.retarget(s.Point)
			ex.caseTag = Case2
		}
	} else if rDone && !sDone {
		if r, _, ok := nr.result(); ok {
			ns.switchTransitive(r.Point)
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
		// have finished. Escalations are checked in channel order so that
		// the reported channel is deterministic when several die.
		if i, _ := earliest(ex.walks); i >= 0 {
			return
		}
		for i, w := range ex.walks {
			if w != nil && w.err != nil {
				ex.failWith(i, w.err)
				return
			}
		}
		switch ex.phase {
		case phWinS:
			s, _, ok := ex.nns[0].result()
			if !ok {
				ex.fail()
				return
			}
			// The second NN query starts only after the first finishes,
			// because its query point is the first one's result.
			rxS, rxR := ex.rxs[0], ex.rxs[1]
			rxR.WaitUntil(rxS.Now())
			ex.nns[1] = ex.opt.Scratch.nnSearch(rxR, s.Point, ex.opt.ANN.FactorR, ex.opt.maxRetries())
			ex.walks[0], ex.walks[1] = nil, &ex.nns[1].airWalk
			ex.phase = phWinR

		case phWinR:
			r, _, okR := ex.nns[1].result()
			if !okR {
				ex.fail()
				return
			}
			s, _, _ := ex.nns[0].result()
			d := geom.Dist(ex.p, s.Point) + geom.Dist(s.Point, r.Point)
			ex.radius = d
			ex.incumbent = Pair{S: s, R: r, Dist: d}
			ex.haveInc = true
			ex.startFilter()

		case phEstimate:
			if ex.variant == chainVariant {
				// Chaining the k results gives a realizable route whose
				// length bounds the search range.
				ex.route = make([]rtree.Entry, len(ex.nns))
				for i, s := range ex.nns {
					e, _, ok := s.result()
					if !ok {
						ex.fail()
						return
					}
					ex.route[i] = e
				}
				ex.radius = routeLength(ex.p, ex.route)
				ex.startFilter()
				continue
			}
			s, _, okS := ex.nns[0].result()
			r, _, okR := ex.nns[1].result()
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
// synchronize the channels (the radius depends on every estimate result),
// and create one circular range search per channel.
func (ex *QueryExec) startFilter() {
	t := ex.Now()
	w := geom.Circle{Center: ex.p, R: ex.radius}
	for i, rx := range ex.rxs {
		ex.estimate += rx.Pages()
		rx.WaitUntil(t)
		ex.rgs[i] = ex.opt.Scratch.rangeSearch(rx, w, ex.opt.maxRetries())
		ex.walks[i] = &ex.rgs[i].airWalk
	}
	ex.phase = phFilter
}

// fail finalizes a query whose estimate phase produced no result (possible
// only on empty datasets): metrics are whatever was spent, Found is false.
func (ex *QueryExec) fail() {
	ex.res = Result{Metrics: client.Collect(ex.rxs...)}
	ex.phase = phDone
}

// failWith finalizes a query whose channel i died: the search escalated
// after MaxRetries consecutive faulted receptions. The metrics account
// everything spent (including the dead receptions), Found is false, and
// Err carries the tagged ChannelError.
func (ex *QueryExec) failWith(i int, cerr *broadcast.ChannelError) {
	cerr.Channel = ex.channelTag(i)
	ex.res = Result{Metrics: client.Collect(ex.rxs...), Err: cerr}
	ex.phase = phDone
}

// joinAndRetrieve is the terminal action: the client-side join over the
// filtered candidates (the variant's own), the optional download of the
// answer's data pages, and the metric collection.
func (ex *QueryExec) joinAndRetrieve() {
	var res Result
	var pair Pair
	ok := true
	h := ex.opt.Scratch.joinHeap()
	switch ex.variant {
	case Transitive, RoundTrip:
		var seed *Pair
		if ex.haveInc {
			seed = &ex.incumbent
		}
		h.join(ex.p, &ex.rgs[0].found, &ex.rgs[1].found, 1, seed, ex.variant == RoundTrip)
		pair, ok = h.top()
	case Unordered:
		pair, res.SFirst = joinUnordered(ex.p, ex.incumbent, &ex.rgs[0].found, &ex.rgs[1].found, h)
	case TopK:
		if h.join(ex.p, &ex.rgs[0].found, &ex.rgs[1].found, ex.k, nil, false); len(*h) == 0 {
			ex.fail()
			return
		}
		res.Pairs = h.sorted()
		pair = res.Pairs[0]
	case chainVariant:
		layers := make([][]rtree.Entry, len(ex.rgs))
		for i, s := range ex.rgs {
			layers[i] = s.found.entries()
		}
		res.Stops, pair.Dist, ok = chainJoin(ex.p, layers, ex.route, ex.radius)
	}

	var err error
	if ok && !ex.opt.SkipDataRetrieval {
		// The client dozes until the answer objects' data pages are on air
		// and downloads the associated attributes, one object per channel.
		// Retrieval is reliable: a faulted data page retries at the
		// object's next broadcast, escalating like the searches do. On a
		// lossless feed this is exactly the old single DownloadObject. The
		// answer is already known at this point, so an escalation keeps
		// it — only the attribute retrieval is reported failed.
		stops := res.Stops
		if stops == nil {
			pairStops := [2]rtree.Entry{pair.S, pair.R}
			stops = pairStops[:]
		}
		t := ex.Now()
		for _, rx := range ex.rxs {
			rx.WaitUntil(t)
		}
		for i, rx := range ex.rxs {
			if _, cerr := rx.DownloadObjectReliable(stops[i].ID, ex.opt.maxRetries()); cerr != nil {
				cerr.Channel = ex.channelTag(i)
				err = cerr
				break
			}
		}
	}

	m := client.Collect(ex.rxs...)
	res.Pair, res.Found, res.Metrics = pair, ok, m
	res.Radius, res.Case, res.Err = ex.radius, ex.caseTag, err
	res.EstimateTuneIn, res.FilterTuneIn = ex.estimate, m.TuneIn-ex.estimate
	ex.res = res
	ex.phase = phDone
}
