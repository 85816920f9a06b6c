package core

import (
	"math"
	"sort"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/heapx"
	"tnnbcast/internal/rtree"
)

// Env is the multi-channel broadcast environment a TNN query runs in: one
// channel broadcasting dataset S, one broadcasting dataset R, and the
// common service region (known to clients a priori; Approximate-TNN uses
// its area to scale the unit-square radius estimate).
type Env struct {
	ChS, ChR broadcast.Feed
	Region   geom.Rect
}

// ANNConfig enables the approximate-NN optimization of Section 5. A factor
// of zero means exact search on that channel; the paper uses factor = 1 for
// Window-Based/Double-NN, 1/150–1/200 for Hybrid-NN, and factor 0 on the
// sparser dataset when densities differ.
type ANNConfig struct {
	FactorS, FactorR float64
}

// Options control one query execution.
type Options struct {
	// Issue is the slot at which the query is issued. Channel phase
	// offsets relative to Issue model the random root waiting times.
	// Single-shot queries run on a private timeline and accept any value;
	// shared-cycle sessions run on one global timeline starting at slot 0
	// and require Issue >= 0 (see session.Query) — negative issue slots
	// are rejected with a typed error.
	Issue int64
	// ANN configures approximate-NN search in the estimate phase.
	ANN ANNConfig
	// SkipDataRetrieval excludes the final download of the answer pair's
	// data pages from the metrics (it is identical for all algorithms).
	SkipDataRetrieval bool
	// Scratch, when non-nil, provides reusable per-query search state
	// (receivers, search processes, candidate queues, entry buffers) so
	// steady-state queries allocate (almost) nothing. It never changes a
	// query's answer or metrics. A Scratch must not be shared between
	// concurrent queries.
	Scratch *Scratch
	// Trace, when non-nil, is invoked once per downloaded page with the
	// channel tag ("S" or "R"; "ch0", "ch1", … for a chain), the slot,
	// and the page content. Used for page-level query traces. Faulted
	// receptions fire TraceFault instead.
	Trace func(channel string, slot int64, page broadcast.Page)
	// TraceFault, when non-nil, is invoked once per faulted reception with
	// the channel tag and the dead slot.
	TraceFault func(channel string, slot int64)
	// MaxRetries bounds the consecutive faulted receptions a query
	// tolerates per channel before giving up with a ChannelError. Zero
	// selects DefaultMaxRetries; lossless feeds never consult it.
	MaxRetries int
}

// DefaultMaxRetries is the escalation bound used when Options.MaxRetries
// is zero: a query survives bursts this long and declares the channel dead
// beyond them.
const DefaultMaxRetries = 16

// maxRetries resolves the escalation bound.
func (o Options) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return DefaultMaxRetries
}

// HybridCase records which of the three Hybrid-NN cases a query exercised.
type HybridCase int

const (
	// CaseNone applies to non-hybrid algorithms or degenerate runs.
	CaseNone HybridCase = iota
	// Case2 means the Channel-1 (S) search finished first and the
	// Channel-2 search was retargeted to s = p.NN(S).
	Case2
	// Case3 means the Channel-2 (R) search finished first and the
	// Channel-1 search switched to the transitive metric.
	Case3
)

// Pair is a TNN answer: one object from each dataset and the transitive
// distance dis(p,s) + dis(s,r).
type Pair struct {
	S, R rtree.Entry
	Dist float64
}

// Result reports one query execution.
type Result struct {
	Pair  Pair
	Found bool
	// Metrics are the paper's access time (max over channels) and tune-in
	// time (sum over channels), in pages.
	Metrics client.Metrics
	// EstimateTuneIn and FilterTuneIn split the tune-in time by phase
	// (data-retrieval pages count toward FilterTuneIn).
	EstimateTuneIn, FilterTuneIn int64
	// Radius is the search-range radius determined by the estimate phase.
	Radius float64
	// Case is the Hybrid-NN case exercised (CaseNone otherwise).
	Case HybridCase
	// Err is non-nil when the query gave up on a dead channel: a
	// *broadcast.ChannelError after MaxRetries consecutive faulted
	// receptions. A search-phase escalation leaves Found false; an
	// escalation during answer retrieval keeps the found Pair (only the
	// attribute download failed). Always nil on lossless feeds.
	Err error

	// SFirst reports, for an Unordered query, whether the S object comes
	// first on the best route.
	SFirst bool
	// Pairs are a TopK query's best pairs in ascending distance order;
	// Pair is Pairs[0].
	Pairs []Pair
	// Stops are a chain query's objects in visiting order; Pair.Dist is
	// the route length and Pair.S/R stay zero.
	Stops []rtree.Entry
}

// pairHeap is a concrete max-heap of pairs by route length (so the worst
// of the best k sits on top), driven by heapx. It holds the join's best
// pairs; a Scratch keeps one across queries.
type pairHeap []Pair

func pairLess(a, b Pair) bool { return a.Dist > b.Dist }

func (h *pairHeap) push(p Pair) { heapx.Push((*[]Pair)(h), p, pairLess) }

// fixTop restores the heap property after the root was replaced in place —
// the concrete equivalent of container/heap.Fix(h, 0).
func (h pairHeap) fixTop() { heapx.Down(h, 0, len(h), pairLess) }

// offer adds pair to a heap of the best k pairs — pushed while the heap
// holds fewer than k, else replacing the root, which it must beat — and
// returns the new k-th best distance, +Inf while the heap is not full.
func (h *pairHeap) offer(pair Pair, k int) float64 {
	if len(*h) < k {
		h.push(pair)
	} else {
		(*h)[0] = pair
		h.fixTop()
	}
	if len(*h) < k {
		return math.Inf(1)
	}
	return (*h)[0].Dist
}

// top returns the heap's root — for a k = 1 join, the best pair — and
// whether the heap holds a pair.
func (h pairHeap) top() (Pair, bool) {
	if len(h) == 0 {
		return Pair{}, false
	}
	return h[0], true
}

// sorted returns a copy of the heap's pairs in ascending route length.
func (h pairHeap) sorted() []Pair {
	pairs := make([]Pair, len(h))
	copy(pairs, h)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Dist < pairs[j].Dist })
	return pairs
}

// join is the client-side join of every two-dataset query (Algorithm 1,
// lines 7–17, generalized): it scans the candidate pairs ss × rs in
// row-major order and leaves in h, in heap order, the k pairs with the
// shortest routes. A route is the transitive distance dis(p,si) +
// dis(si,rj), plus the closing leg dis(rj,p) when tour is set, summed in
// tourLength's order. A non-nil seed, a realizable route such as the
// estimate pair that defined the search range, enters h first: with
// k = 1 it bounds the scan from the start and is kept on ties.
//
// An unseeded k = 1 join (Approximate-TNN's) first scans a probe row,
// that of the S candidate nearest p, with the main loop's float ops. Its
// best route U is realizable, so the optimum t* <= U, and the scan runs
// from kth = nextafter(U, +Inf) with h empty: it admits only t <= U and
// skips only t > t*, so the row-major-first optimum is the plain loop's.
// A probe with no finite route leaves kth = +Inf, the plain loop.
//
// Every screen below only skips pairs the full comparison would reject
// anyway. Each bounds a route from below by dps plus a Chebyshev gap of
// (si, rj) — a tour only adds a non-negative leg, and rounding is
// monotone — against the k-th best route, which is +Inf until h holds k
// pairs (or the probe's bound), so until then no screen fires. The bound
// only shrinks during the scan, so the pairs are still compared in
// row-major order with the same float ops: the heap, ties included, is
// that of the plain nested loop.
func (h *pairHeap) join(p geom.Point, ss, rs *pointBuf, k int, seed *Pair, tour bool) {
	*h = (*h)[:0]
	kth := math.Inf(1)
	rs.blocks()
	if seed != nil {
		kth = h.offer(*seed, k)
	} else if k == 1 && len(ss.x) > 0 {
		kth = math.Nextafter(h.row(p, ss, rs, ss.nearest(p), kth, 1, tour), math.Inf(1))
		*h = (*h)[:0]
	}
	for i := range ss.x {
		kth = h.row(p, ss, rs, i, kth, k, tour)
	}
}

// row scans the pairs (si, rj) of row i of the join in R order, offers
// each route below kth to the best-k heap h (any route while h holds
// fewer than k pairs and no bound is set), and returns the new kth.
func (h *pairHeap) row(p geom.Point, ss, rs *pointBuf, i int, kth float64, k int, tour bool) float64 {
	six, siy := ss.x[i], ss.y[i]
	dps, far := sDist(p, six, siy, kth)
	if far {
		return kth
	}
	rsx := rs.x
	rsy := rs.y[:len(rsx)]
	// Group and run screens: dps+gap <= dps+max(|dx|,|dy|) for every rj
	// in a box, so a box at or past kth fails every per-point screen.
	for b := rs.nextRun(0, six, siy, dps, kth); b < len(rs.box); b = rs.nextRun(b+1, six, siy, dps, kth) {
		lo := b * joinBlock
		hi := min(lo+joinBlock, len(rsx))
		// Sub-slicing the run (y pinned to len(x)) keeps the inner loop
		// free of bounds checks.
		bx := rsx[lo:hi]
		by := rsy[lo:hi][:len(bx)]
		for j := range bx {
			// Chebyshev screen: hypot(dx,dy) >= max(|dx|,|dy|) holds in
			// floating point (hypot never rounds below its larger leg),
			// and rounding is monotone, so dps+max >= kth implies the
			// full route >= kth — the pair would be discarded anyway.
			m := geom.Max(math.Abs(six-bx[j]), math.Abs(siy-by[j]))
			if dps+m >= kth {
				continue
			}
			t := dps + math.Hypot(six-bx[j], siy-by[j])
			if tour {
				t += math.Hypot(bx[j]-p.X, by[j]-p.Y)
			}
			if t < kth || len(*h) < k && math.IsInf(kth, 1) {
				kth = h.offer(Pair{S: ss.entry(i), R: rs.entry(lo + j), Dist: t}, k)
			}
		}
	}
	return kth
}

// sDist returns dps = dis(p, si) for si = (x, y), the fixed term of every
// transitive distance dis(p,si) + dis(si,rj) of the join's inner loop
// (geom.TransDist is exactly this sum, in this order), and reports far
// when dps >= d, so no pair through si can beat the bound d. An outer
// Chebyshev screen runs first: dps is at least the larger coordinate gap
// (same subtractions), so a gap at or past d skips the hypot.
//
//tnn:noalloc
func sDist(p geom.Point, x, y, d float64) (dps float64, far bool) {
	if geom.Max(math.Abs(p.X-x), math.Abs(p.Y-y)) >= d {
		return 0, true
	}
	dps = math.Hypot(p.X-x, p.Y-y)
	return dps, dps >= d
}

// ApproxRadius is Eq. 1 of the paper: for n points uniformly distributed in
// a unit square, a circle of radius r_k(n) = ln(n)·sqrt(k/(π·n)) encloses
// at least k points with high probability. The radius scales with the
// square root of the region area.
func ApproxRadius(n, k int, area float64) float64 {
	if n <= 0 {
		return 0
	}
	return math.Log(float64(n)) * math.Sqrt(float64(k)/(math.Pi*float64(n))) * math.Sqrt(area)
}
