// Package core implements the paper's contribution: transitive
// nearest-neighbor (TNN) query processing over multi-channel wireless
// broadcast. It provides the four algorithms evaluated in the paper —
// the adapted Window-Based-TNN-Search and Approximate-TNN-Search baselines
// and the new Double-NN-Search and Hybrid-NN-Search — plus the
// approximate-NN (ANN) optimization with its circle–rectangle and
// ellipse–rectangle pruning heuristics and the dynamic threshold of Eq. 4.
//
// All algorithms follow the estimate–filter paradigm: phase 1 determines a
// circular search range around the query point that provably contains the
// answer pair (Theorem 1), phase 2 retrieves the candidate objects of both
// datasets inside the range and joins them locally on the client. Every
// search of either phase — NN, k-NN and circular range — runs on one
// broadcast walk, airWalk, which owns the arrival-ordered MBR_queue and
// loss recovery, and every two-dataset query ends in one k-best pair join,
// pairHeap.join.
//
// The searches traverse the rtree.Flat SoA image of the broadcast tree:
// candidates carry (preorder ID, entry index) instead of *Node pointers,
// MBRs are re-read as contiguous float64 loads, leaf scans run through
// the batched geometry kernels of internal/geom with their exact
// Chebyshev screens (see geom/batch.go for the exactness contract), and
// the seen/found buffers are pointer-free parallel arrays. Every screen
// only skips work — no comparison outcome, pop order, or metric ever
// differs from the scalar pointer-walking implementation this replaced.
//
// Every result this package produces is a pure function of its explicit
// inputs — the invariant behind the worker-invariance goldens, enforced
// at compile time by tnnlint (see internal/analysis).
//
//tnn:deterministic
package core

import (
	"math"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// searchMode selects the metric a broadcast search minimizes.
type searchMode int

const (
	// modeNN minimizes dis(q, ·): an ordinary nearest-neighbor search.
	modeNN searchMode = iota
	// modeTrans minimizes dis(p, ·) + dis(·, r): the transitive search of
	// Hybrid-NN Case 3, driven by MinTransDist / MinMaxTransDist.
	modeTrans
)

// batchCap is the block size fed to the batched geometry kernels: large
// enough to amortize the call and keep the compiler's bounds-check
// elimination effective, small enough that the screen buffers live in
// registers/L1.
const batchCap = 8

// joinBlock is the run length of the join's block screen: the R-side
// candidates are cut into runs of joinBlock consecutive points, and a run
// whose bounding box is already too far from si is skipped whole. Range-
// search leaves are appended in broadcast order, so a run is spatially
// compact and its box small.
const joinBlock = 16

// joinGroup is the number of consecutive joinBlock runs under one group
// box, the join screen's first level: a group whose box is too far from
// si skips joinGroup runs with one test.
const joinGroup = 4

// pointBuf is a pointer-free SoA buffer of data points (the seen/found
// sets of the searches): parallel x/y/id slices the GC never scans, bulk-
// appendable straight from the rtree.Flat leaf arrays. Capacity is
// retained across queries by the scratch reuse protocol.
type pointBuf struct {
	x, y []float64
	id   []int32
	// box holds the joinBlock run bounds of the last blocks call and grp
	// the bounds of each joinGroup consecutive runs; only the joins read
	// them.
	box, grp []blockBox
}

// blockBox is the bounding box of one joinBlock run, or of one group of
// runs, of a pointBuf.
type blockBox struct{ x0, x1, y0, y1 float64 }

// gap is a lower bound, in floating point, of the Chebyshev screen
// max(|x-rx|, |y-ry|) of every point (rx, ry) in the box's run. Float
// subtraction rounds monotonically, so for x < x0 <= rx the computed
// x0-x is at most the computed |x-rx|; the other three sides are alike,
// and the 0 covers an x, y inside the box.
//
// It is geom.Max(geom.Gap(x0, x1, x), geom.Gap(y0, y1, y)) fused into
// one int64 max over the four differences' bits (geom's contract case
// 4), which keeps it within the inlining budget of nextRun's loop.
//
//tnn:noalloc
func (bx *blockBox) gap(x, y float64) float64 {
	return math.Float64frombits(uint64(max(int64(math.Float64bits(bx.x0-x)), int64(math.Float64bits(x-bx.x1)),
		int64(math.Float64bits(bx.y0-y)), int64(math.Float64bits(y-bx.y1)), 0)))
}

// blocks recomputes the bounding boxes of the buffer's joinBlock runs and
// of their groups over its current contents. The boxes keep their
// capacity with the buffer, so a warmed scratch stays allocation-free.
func (b *pointBuf) blocks() {
	xs := b.x
	ys := b.y[:len(xs)]
	box := b.box[:0]
	for lo := 0; lo < len(xs); lo += joinBlock {
		hi := min(lo+joinBlock, len(xs))
		bx := blockBox{xs[lo], xs[lo], ys[lo], ys[lo]}
		for j := lo + 1; j < hi; j++ {
			bx.x0, bx.x1 = min(bx.x0, xs[j]), max(bx.x1, xs[j])
			bx.y0, bx.y1 = min(bx.y0, ys[j]), max(bx.y1, ys[j])
		}
		box = append(box, bx)
	}
	grp := b.grp[:0]
	for lo := 0; lo < len(box); lo += joinGroup {
		gx := box[lo]
		for _, bx := range box[lo+1 : min(lo+joinGroup, len(box))] {
			gx.x0, gx.x1 = min(gx.x0, bx.x0), max(gx.x1, bx.x1)
			gx.y0, gx.y1 = min(gx.y0, bx.y0), max(gx.y1, bx.y1)
		}
		grp = append(grp, gx)
	}
	b.box, b.grp = box, grp
}

// nextRun is the joins' two-level screen. It returns the first joinBlock
// run at or after r that may hold a pair through si = (x, y) beating the
// bound d, where dps = dis(p, si), or the run count when none is left.
// A group is tested as the scan enters it, then each of its runs: a group
// box contains its runs' boxes, so by the same monotone rounding as gap's
// its gap is at most theirs, and a group at or past d fails every run
// screen inside it. Runs come back in R order, so a caller scanning them
// compares the surviving pairs in row-major order.
//
//tnn:noalloc
func (b *pointBuf) nextRun(r int, x, y, dps, d float64) int {
	box, grp := b.box, b.grp
	for r < len(box) {
		if r%joinGroup == 0 && dps+grp[r/joinGroup].gap(x, y) >= d {
			r += joinGroup
			continue
		}
		if dps+box[r].gap(x, y) >= d {
			r++
			continue
		}
		return r
	}
	return len(box)
}

// nearest returns the index of the buffer's point nearest q by squared
// distance, the first on ties (0 when every square overflows). The buffer
// must not be empty.
//
//tnn:noalloc
func (b *pointBuf) nearest(q geom.Point) int {
	xs := b.x
	ys := b.y[:len(xs)]
	n, best := 0, math.Inf(1)
	for i := range xs {
		dx, dy := xs[i]-q.X, ys[i]-q.Y
		if d := dx*dx + dy*dy; d < best {
			n, best = i, d
		}
	}
	return n
}

// reset empties the buffer, retaining capacity.
//
//tnn:noalloc
func (b *pointBuf) reset() {
	b.x, b.y, b.id = b.x[:0], b.y[:0], b.id[:0]
}

// Len returns the number of buffered points.
//
//tnn:noalloc
func (b *pointBuf) Len() int { return len(b.x) }

// reserve pre-sizes a fresh buffer's parallel slices in one shot, so a
// newly pooled scratch does not pay a ladder of doubling reallocations
// during its first query. A warmed buffer (nonzero capacity) is left
// untouched — steady state stays allocation-free.
func (b *pointBuf) reserve(n int) {
	if cap(b.x) != 0 {
		return
	}
	b.x = make([]float64, 0, n)
	b.y = make([]float64, 0, n)
	b.id = make([]int32, 0, n)
}

// add appends one point.
func (b *pointBuf) add(x, y float64, id int32) {
	b.x = append(b.x, x)
	b.y = append(b.y, y)
	b.id = append(b.id, id)
}

// appendRun bulk-appends a run of points from parallel slices (a leaf's
// slice of the Flat arrays).
func (b *pointBuf) appendRun(xs, ys []float64, ids []int32) {
	b.x = append(b.x, xs...)
	b.y = append(b.y, ys...)
	b.id = append(b.id, ids...)
}

// entry materializes point i as an rtree.Entry for result reporting.
//
//tnn:noalloc
func (b *pointBuf) entry(i int) rtree.Entry {
	return rtree.Entry{Point: geom.Point{X: b.x[i], Y: b.y[i]}, ID: int(b.id[i])}
}

// entries materializes the whole buffer as []rtree.Entry. It allocates;
// only cold paths (chain layers, oracles, tests) use it.
func (b *pointBuf) entries() []rtree.Entry {
	out := make([]rtree.Entry, b.Len())
	for i := range out {
		out[i] = b.entry(i)
	}
	return out
}

// Scratch holds reusable per-query search state: the search process
// structs, their candidate queues' backing storage, the seen/found entry
// buffers, and the join's pair heap. Passing one via Options.Scratch makes
// steady-state queries allocate (almost) nothing — the buffers grow to the
// query working-set size once and are then reused. A Scratch must not be
// shared between concurrent queries; each worker owns its own.
type Scratch struct {
	rx   [2]client.Receiver
	nn   [2]nnSearch
	knn  [2]knnSearch
	rg   [2]rangeSearch
	join pairHeap
	rxN  int
	nnN  int
	knnN int
	rgN  int

	// The executor's per-channel slices (see channels).
	rxs   []*client.Receiver
	nns   []*nnSearch
	rgs   []*rangeSearch
	walks []*airWalk
}

// NewScratch returns an empty scratch space for query execution.
func NewScratch() *Scratch { return &Scratch{} }

// reset reclaims all scratch slots for a new query. Nil-safe.
func (sc *Scratch) reset() {
	if sc != nil {
		sc.rxN, sc.nnN, sc.knnN, sc.rgN = 0, 0, 0, 0
	}
}

// receiver returns a receiver for ch, reusing a scratch slot when one is
// free and falling back to allocation otherwise (nil-safe).
func (sc *Scratch) receiver(ch broadcast.Feed, issue int64) *client.Receiver {
	if sc == nil || sc.rxN >= len(sc.rx) {
		return client.NewReceiver(ch, issue)
	}
	r := &sc.rx[sc.rxN]
	sc.rxN++
	r.Reset(ch, issue)
	return r
}

// channels returns a k-channel execution's per-channel slices —
// receivers, NN searches, range searches and the running phase's walks —
// cleared, reusing the scratch's backing arrays once they have grown to k
// (nil-safe).
func (sc *Scratch) channels(k int) ([]*client.Receiver, []*nnSearch, []*rangeSearch, []*airWalk) {
	if sc == nil {
		return make([]*client.Receiver, k), make([]*nnSearch, k), make([]*rangeSearch, k), make([]*airWalk, k)
	}
	sc.rxs, sc.nns, sc.rgs, sc.walks = cleared(sc.rxs, k), cleared(sc.nns, k), cleared(sc.rgs, k), cleared(sc.walks, k)
	return sc.rxs, sc.nns, sc.rgs, sc.walks
}

// cleared returns s resized to n zero elements, reusing its backing array
// when it is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[:cap(s)])
	return s[:n]
}

// joinHeap returns the scratch's pair heap for the join, or a fresh one
// without a scratch (nil-safe).
func (sc *Scratch) joinHeap() *pairHeap {
	if sc == nil {
		return new(pairHeap)
	}
	return &sc.join
}

// nnSearch returns an initialized NN search, reusing a scratch slot when
// one is free (nil-safe).
func (sc *Scratch) nnSearch(rx *client.Receiver, q geom.Point, factor float64, maxFaults int) *nnSearch {
	var s *nnSearch
	if sc != nil && sc.nnN < len(sc.nn) {
		s = &sc.nn[sc.nnN]
		sc.nnN++
	} else {
		s = new(nnSearch)
	}
	s.init(rx, q, factor, maxFaults)
	return s
}

// knnSearch returns an initialized k-NN search, reusing a scratch slot
// when one is free (nil-safe).
func (sc *Scratch) knnSearch(rx *client.Receiver, q geom.Point, k, maxFaults int) *knnSearch {
	var s *knnSearch
	if sc != nil && sc.knnN < len(sc.knn) {
		s = &sc.knn[sc.knnN]
		sc.knnN++
	} else {
		s = new(knnSearch)
	}
	s.init(rx, q, k, maxFaults)
	return s
}

// rangeSearch returns an initialized range search, reusing a scratch slot
// when one is free (nil-safe).
func (sc *Scratch) rangeSearch(rx *client.Receiver, c geom.Circle, maxFaults int) *rangeSearch {
	var s *rangeSearch
	if sc != nil && sc.rgN < len(sc.rg) {
		s = &sc.rg[sc.rgN]
		sc.rgN++
	} else {
		s = new(rangeSearch)
	}
	s.init(rx, c, maxFaults)
	return s
}

// airWalk is the broadcast walk under all three searches of this package
// (nnSearch, knnSearch, rangeSearch): a backtrack-free traversal of one
// channel's tree in the order its pages come on air. The walk downloads
// the root at its next arrival, then repeatedly pops the candidate of
// MBR_queue (the ArrivalQueue) that arrives first and downloads it. The
// embedding search owns two decisions: whether a popped candidate is
// pruned, and how a received node is visited — a leaf scan, or a push of
// its children in reverse entry order. On a preorder schedule a node's
// later children arrive later, and every queued candidate after all of
// them, so each push is a new queue minimum and takes ArrivalQueue's
// tail-append path. The order changes nothing else: the pop sequence
// depends only on the queued set ((Arrival, Key) is a strict total order).
//
// Peek reports the slot of the next action; the search's Step performs
// it. Recovery protocol: a faulted reception burns the slot (the receiver
// accounts the tune-in, the clock moves past it) and re-derives the same
// page's next arrival — a faulted root leaves the walk unstarted, so Peek
// re-asks the root arrival, and a faulted candidate is re-filed at its
// next broadcast. The other queued arrivals are never stale: distinct
// index pages occupy distinct slots, so each exceeds the faulted slot the
// clock just passed. A clean reception resets the fault count; after
// maxFaults consecutive faults the walk gives up with a ChannelError
// instead of chasing a dead medium forever (the executor that knows the
// channel fills in its Channel tag).
type airWalk struct {
	rx     *client.Receiver
	flat   *rtree.Flat // SoA image of the channel's tree
	delays []int32     // the index's pointer table, per Flat child entry
	queue  client.ArrivalQueue

	started  bool
	finished bool
	next     int64 // cached next-action slot; valid while !finished

	faults    int
	maxFaults int
	err       *broadcast.ChannelError
}

// reset (re)starts the walk on rx's channel, retaining the queue's backing
// storage. A walk over an empty tree, or with done set, is finished at once.
func (w *airWalk) reset(rx *client.Receiver, maxFaults int, done bool) {
	idx := rx.Channel().Index()
	t := idx.Tree()
	w.rx = rx
	w.flat = t.Flat()
	w.delays = idx.ChildDelays()
	w.queue.Reset()
	w.started = false
	w.finished = done || t.Count == 0
	w.faults = 0
	w.maxFaults = maxFaults
	w.err = nil
	w.resched()
}

// resched recomputes the cached next-action slot after any state change —
// the one place the Peek answer is derived. Caching it here instead of in
// Peek matters because the executor consults Peek several times per
// step (dispatch, phase folding, tie-breaks); deriving the root arrival
// through the feed on every consultation was measurable.
//
//tnn:noalloc
func (w *airWalk) resched() {
	if w.finished {
		return
	}
	if !w.started {
		w.next = w.rx.NextRootArrival()
		return
	}
	if w.queue.Len() == 0 {
		w.finished = true
		return
	}
	w.next = w.queue.Peek().Arrival
}

// Peek is a pure read of the cached schedule.
//
//tnn:noalloc
func (w *airWalk) Peek() (int64, bool) {
	return w.next, w.finished
}

// earliest returns the index and slot of the not-finished walk that acts
// first — the smallest slot, the lowest index (channel order) on ties — or
// index -1 when every walk is finished; nil walks are skipped. Every
// executor phase orders its searches with it; the concrete walk type
// keeps the Peek calls inlined field reads.
//
//tnn:noalloc
func earliest(ws []*airWalk) (idx int, slot int64) {
	idx = -1
	for i, w := range ws {
		if w == nil {
			continue
		}
		if t, done := w.Peek(); !done && (idx == -1 || t < slot) {
			idx, slot = i, t
		}
	}
	return idx, slot
}

// pop returns the candidate the walk acts on next: the root (preorder
// node 0, at the cached root arrival) while the walk is unstarted, with
// root set, else the earliest queued candidate, taken off the queue.
func (w *airWalk) pop() (c client.Candidate, root bool) {
	if !w.started {
		return client.Candidate{Arrival: w.next}, true
	}
	return w.queue.Pop(), false
}

// receive downloads candidate c and reports whether the reception was
// clean. The slot was derived as c.Key's next arrival, so the page on air
// there IS node c.Key — no page materialization needed. A fault applies
// the recovery protocol.
func (w *airWalk) receive(c client.Candidate) bool {
	if pf := w.rx.DownloadIndexSlot(c.Arrival); pf != nil {
		if w.started {
			w.queue.Push(client.Candidate{Arrival: w.rx.NextNodeArrival(int(c.Key)), Key: c.Key, Ent: c.Ent})
		}
		w.fault(pf)
		return false
	}
	w.faults = 0
	w.started = true
	return true
}

// childArrival returns the next arrival of child entry e of the node
// received at slot: the parent's pointer, slot + delay, when the index's
// pointer table holds one (Feed airs a program cycle on consecutive
// slots), else the feed's answer.
//
//tnn:noalloc
func (w *airWalk) childArrival(e int32, slot int64) int64 {
	if d := w.delays[e]; d != 0 {
		return slot + int64(d)
	}
	return w.askArrival(e)
}

// askArrival asks the feed for child entry e's next arrival at the
// receiver's clock, the slot after its parent's; it stays out of line so
// that childArrival inlines into the visit loops.
//
//tnn:noalloc
//go:noinline
func (w *airWalk) askArrival(e int32) int64 {
	return w.rx.NextNodeArrival(int(w.flat.Key[e]))
}

// fault records one failed reception and escalates to a ChannelError when
// maxFaults consecutive receptions have failed.
func (w *airWalk) fault(pf *broadcast.PageFault) {
	w.faults++
	if w.faults >= w.maxFaults {
		w.err = &broadcast.ChannelError{Attempts: w.faults, Last: pf}
		w.finished = true
	}
}

// nnSearch is a backtrack-free nearest-neighbor search on an airWalk.
// Pruning is evaluated when a candidate is popped (delayed pruning —
// children are always enqueued so that a Hybrid-NN redirect cannot lose
// the node holding the answer of the *new* query, Section 4.2.4).
type nnSearch struct {
	airWalk
	mode searchMode
	q    geom.Point // NN query point (p; or s after a Case-2 retarget)
	rEnd geom.Point // transitive endpoint r (Case 3 only)

	ub     float64
	seen   pointBuf
	best   rtree.Entry
	bestD  float64
	bestOK bool

	// ANN pruning (Heuristics 1 and 2). factor == 0 means exact search.
	factor float64

	// qmin caches the smallest metric lower bound among the queued
	// candidates (valid while qminOK). Maintained incrementally: pushes
	// lower it, a pop that reaches it invalidates, metric switches
	// invalidate. Only ANN pruning consults it, so exact searches never
	// pay for the bookkeeping.
	qmin   float64
	qminOK bool

	// frame caches the ellipse normalization for Heuristic 2: the foci
	// (q, rEnd) are fixed for the lifetime of a transitive search while
	// the major axis (ub) shrinks, so the rotation is derived once per
	// metric switch instead of per pruning decision.
	frame geom.EllipseFrame

	height int

	// cheb is the screen buffer for batched leaf scans.
	cheb [batchCap]float64
}

// init (re)initializes an exact or approximate NN search for query point
// q on the channel behind rx, in place, retaining the queue's backing
// storage and the seen buffer's capacity across queries. factor is the
// ANN adjustment of Eq. 4 (0 for exact search); maxFaults bounds
// consecutive failed receptions.
func (s *nnSearch) init(rx *client.Receiver, q geom.Point, factor float64, maxFaults int) {
	s.airWalk.reset(rx, maxFaults, false)
	s.mode = modeNN
	s.q = q
	s.rEnd = geom.Point{}
	s.ub = math.Inf(1)
	s.seen.reset()
	s.seen.reserve(64)
	s.best = rtree.Entry{}
	s.bestD = math.Inf(1)
	s.bestOK = false
	s.factor = factor
	s.qmin = 0
	s.qminOK = false
	s.frame = geom.EllipseFrame{}
	s.height = rx.Channel().Index().Tree().Height
}

// Step performs one action: receive the root or the next unpruned
// candidate and visit it.
func (s *nnSearch) Step() {
	if c, root := s.pop(); (root || !s.pruned(c)) && s.receive(c) {
		s.visit(c.Key, c.Arrival)
	}
	s.resched()
}

// lower returns the metric lower bound for a candidate MBR.
func (s *nnSearch) lower(m geom.Rect) float64 {
	if s.mode == modeTrans {
		return geom.MinTransDist(s.q, m, s.rEnd)
	}
	return m.MinDist(s.q)
}

// metricXY returns the distance of an actual data point given as SoA
// coordinates — the same float64 operations, in the same order, as
// geom.Dist / geom.TransDist on the materialized point.
func (s *nnSearch) metricXY(x, y float64) float64 {
	if s.mode == modeTrans {
		return math.Hypot(s.q.X-x, s.q.Y-y) + math.Hypot(x-s.rEnd.X, y-s.rEnd.Y)
	}
	return math.Hypot(s.q.X-x, s.q.Y-y)
}

// alpha is the dynamic pruning threshold of Eq. 4:
// α = (node depth / tree height) × factor, with the root counted at level 1
// so that leaves reach α = factor.
func (s *nnSearch) alpha(depth int) float64 {
	return float64(depth+1) / float64(s.height) * s.factor
}

// overlapRatio estimates the probability that m contains a point improving
// the ANN bound, assuming uniformity: the fraction of m's area covered by
// the current search region (Heuristic 1's circle for NN search,
// Heuristic 2's ellipse with foci (p, r) for the transitive search).
func (s *nnSearch) overlapRatio(m geom.Rect) float64 {
	area := m.Area()
	if area == 0 {
		// Degenerate MBR (collinear points): the area heuristic is
		// undefined; keep the node (it survived the exact prune).
		return 1
	}
	if s.mode == modeTrans {
		return s.frame.RectOverlap(s.ub, m) / area
	}
	c := geom.Circle{Center: s.q, R: s.ub}
	return geom.CircleRectOverlap(c, m) / area
}

// pruned decides whether a popped candidate can be skipped without
// downloading it. Exact pruning discards nodes that provably cannot
// improve the sound upper bound; ANN pruning (when factor > 0)
// additionally discards nodes whose estimated improvement probability is
// at most α. The most promising candidate — the one achieving the smallest
// lower bound among all currently queued nodes — is never ANN-pruned:
// this is Section 5.1's "the MBR which gives the latest upper bound has to
// be preserved and visited", and it guarantees the search descends at
// least one full branch to real data points.
func (s *nnSearch) pruned(c client.Candidate) bool {
	f := s.flat
	e := c.Ent
	if s.factor <= 0 {
		// Exact search. The qmin bookkeeping below is dead here (qminOK
		// is only ever set by the ANN branch), so the decision reduces to
		// lower(MBR) > ub — which the Chebyshev screens settle for most
		// pops without a hypot or a MinTransDist.
		if s.mode == modeNN {
			dx := geom.Gap(f.MinX[e], f.MaxX[e], s.q.X)
			dy := geom.Gap(f.MinY[e], f.MaxY[e], s.q.Y)
			if geom.Max(dx, dy) > s.ub {
				return true // MinDist = hypot(dx,dy) >= max(dx,dy): same operands, exact
			}
			if (dx+dy)*geom.ScreenSlack <= s.ub {
				// 1-norm accept: hypot(dx,dy) <= dx+dy, and the slack
				// (~4e6 ulps) absorbs the few-ulp rounding of the sum and
				// product, so the hypot provably cannot exceed ub either.
				return false
			}
			return geom.HypotCmp(dx, dy, s.ub) > 0 // squared screen; hypot only in its band
		}
		m := f.EntRect(e)
		if geom.MinTransDistCheb(s.q, m, s.rEnd) > s.ub*geom.ScreenSlack {
			return true // slacked screen: MinTransDist provably exceeds ub
		}
		return geom.MinTransDist(s.q, m, s.rEnd) > s.ub
	}
	m := f.EntRect(e)
	lb := s.lower(m)
	if s.qminOK && lb <= s.qmin {
		// The popped candidate may have defined the cached queue minimum;
		// recompute lazily on the next queueMinLower call.
		s.qminOK = false
	}
	if lb > s.ub && s.bestOK {
		// Exact pruning, deferred until a real point backs the bound:
		// face-property promises alone could otherwise exact-prune the
		// whole queue after ANN pruning removed the promised subtree,
		// ending the search with no result at all.
		return true
	}
	if math.IsInf(s.ub, 1) {
		return false
	}
	if lb <= s.queueMinLower() {
		return false // the greedy-descent guarantee: always visited
	}
	return s.overlapRatio(m) <= s.alpha(int(f.Depth[c.Key]))
}

// queueMinLower returns the smallest metric lower bound among the queued
// candidates (+Inf when the queue is empty). The cached value is reused
// while valid; otherwise one in-place scan over the queue recomputes it,
// without allocation.
func (s *nnSearch) queueMinLower() float64 {
	if !s.qminOK {
		min := math.Inf(1)
		for i, n := 0, s.queue.Len(); i < n; i++ {
			if lb := s.lower(s.flat.EntRect(s.queue.At(i).Ent)); lb < min {
				min = lb
			}
		}
		s.qmin = min
		s.qminOK = true
	}
	return s.qmin
}

// tightenUB lowers the sound upper bound with the face-property guarantee
// of node entry e, screening out entries that cannot improve it: exactly
// (same legs) for the NN metric via MinMaxDistBelow, with ScreenSlack for
// the independently computed transitive bound.
func (s *nnSearch) tightenUB(e int32) {
	if s.mode == modeNN {
		if z, ok := s.flat.EntRect(e).MinMaxDistBelow(s.q, s.ub); ok {
			s.ub = z
		}
		return
	}
	m := s.flat.EntRect(e)
	if geom.MinTransDistCheb(s.q, m, s.rEnd) > s.ub*geom.ScreenSlack {
		return // MinMaxTransDist >= MinTransDist > ub: cannot improve
	}
	if z := geom.MinMaxTransDist(s.q, m, s.rEnd); z < s.ub {
		s.ub = z
	}
}

// visit consumes the page content of node id, received at slot: child
// references for internal nodes (updating the upper bound via the face
// property), point entries for leaves.
func (s *nnSearch) visit(id int32, slot int64) {
	if s.flat.Leaf(id) {
		s.visitLeaf(id)
		return
	}
	s.visitInternal(id, slot)
}

// visitLeaf scans a leaf's points from the Flat SoA arrays: the whole run
// is bulk-appended to seen, then screened in batchCap blocks — the
// Chebyshev kernel shares its subtractions with the metric, so a point
// whose screen value reaches both bounds provably updates neither.
func (s *nnSearch) visitLeaf(id int32) {
	f := s.flat
	first, end := f.LeafRange(id)
	xs, ys, ids := f.X[first:end], f.Y[first:end], f.ID[first:end]
	s.seen.appendRun(xs, ys, ids)
	for len(xs) > 0 {
		n := min(len(xs), batchCap)
		cheb := s.cheb[:n]
		if s.mode == modeTrans {
			geom.TransDistChebBatch(s.q, s.rEnd, xs[:n], ys[:n], cheb)
		} else {
			geom.DistChebBatch(s.q, xs[:n], ys[:n], cheb)
		}
		for i := range n {
			if cheb[i] >= s.bestD && cheb[i] >= s.ub {
				continue // metric >= screen: cannot improve either bound
			}
			d := s.metricXY(xs[i], ys[i])
			if d < s.bestD {
				s.bestD, s.bestOK = d, true
				s.best = rtree.Entry{Point: geom.Point{X: xs[i], Y: ys[i]}, ID: int(ids[i])}
			}
			if d < s.ub {
				s.ub = d
			}
		}
		xs, ys, ids = xs[n:], ys[n:], ids[n:]
	}
}

// visitInternal scans an internal node's child entries from the Flat SoA
// arrays, in airWalk's reverse entry order: tighten the sound bound,
// enqueue every child (delayed pruning: pruning happens at pop so that a
// later metric change can still reach any subtree), and keep the ANN
// queue-minimum cache current. The bound and qmin updates are mins, so
// the scan order does not change them.
func (s *nnSearch) visitInternal(id int32, slot int64) {
	f := s.flat
	first, end := f.EntRange(id)
	for e := end - 1; e >= first; e-- {
		s.tightenUB(e)
		s.queue.Push(client.Candidate{Arrival: s.childArrival(e, slot), Key: f.Key[e], Ent: e})
		if s.qminOK {
			if lb := s.lower(f.EntRect(e)); lb < s.qmin {
				s.qmin = lb
			}
		}
	}
}

// redirect restarts the bounds after a change of query point or metric.
// The incumbent is recomputed over every point seen so far: the client
// has already downloaded those leaf pages, so this costs no tune-in. Then
// the initial upper-bound update of Section 4.2.3 lowers the sound bound
// to the smallest face-property guarantee among the queued MBRs. The walk
// goes on from where it is.
func (s *nnSearch) redirect() {
	s.qminOK = false // lower bounds change with the query point or metric
	s.ub = math.Inf(1)
	s.bestD = math.Inf(1)
	s.bestOK = false
	xs, ys, ids := s.seen.x, s.seen.y, s.seen.id
	for i := range xs {
		d := s.metricXY(xs[i], ys[i])
		if d < s.bestD {
			s.bestD, s.bestOK = d, true
			s.best = rtree.Entry{Point: geom.Point{X: xs[i], Y: ys[i]}, ID: int(ids[i])}
		}
		if d < s.ub {
			s.ub = d
		}
	}
	for i, n := 0, s.queue.Len(); i < n; i++ {
		s.tightenUB(s.queue.At(i).Ent)
	}
}

// retarget switches the NN search to a new query point (Hybrid-NN Case 2:
// the Channel-1 search finished with result s; the Channel-2 search now
// looks for the neighbor of s on the remaining portion of its R-tree).
func (s *nnSearch) retarget(newQ geom.Point) {
	s.q = newQ
	s.mode = modeNN
	s.redirect()
}

// switchTransitive switches the search to the transitive metric
// dis(p, ·) + dis(·, r) (Hybrid-NN Case 3: the Channel-2 search finished
// with result r; the Channel-1 search now minimizes the full transitive
// distance using MinTransDist/MinMaxTransDist on its remaining R-tree).
func (s *nnSearch) switchTransitive(r geom.Point) {
	s.rEnd = r
	s.mode = modeTrans
	s.frame = geom.NewEllipseFrame(s.q, s.rEnd)
	s.redirect()
}

// result returns the best entry found and its metric value.
func (s *nnSearch) result() (rtree.Entry, float64, bool) {
	return s.best, s.bestD, s.bestOK
}

// rangeSearch retrieves every object location inside a circular window —
// the filter-phase range query, on an airWalk.
type rangeSearch struct {
	airWalk
	circle geom.Circle
	rBound float64 // circle.R + Eps: the IntersectsRect threshold, hoisted
	r2     float64 // circle.R² + Eps: the Contains threshold, hoisted
	found  pointBuf

	// d2 is the batched DistSq buffer for leaf scans.
	d2 [batchCap]float64
}

// init (re)initializes the search in place, retaining the queue's backing
// storage and the found buffer's capacity across queries. The two circle
// thresholds are hoisted here: both are deterministic functions of R, so
// computing them once is bit-identical to the per-call originals.
func (s *rangeSearch) init(rx *client.Receiver, c geom.Circle, maxFaults int) {
	s.airWalk.reset(rx, maxFaults, false)
	s.circle = c
	s.rBound = c.R + geom.Eps
	s.r2 = c.R*c.R + geom.Eps
	s.found.reset()
	s.found.reserve(64)
}

// Step performs one action: receive the root or the next candidate and
// visit it. Candidates need no pop-time prune: children are only enqueued
// after passing the intersection test, the circle never changes, and a
// faulted candidate is re-filed unmodified, so every popped candidate
// still intersects.
func (s *rangeSearch) Step() {
	if c, _ := s.pop(); s.receive(c) {
		s.visit(c.Key, c.Arrival)
	}
	s.resched()
}

// visit collects a leaf's points inside the circle, or queues the
// children of an internal node received at slot whose MBRs intersect it.
func (s *rangeSearch) visit(id int32, slot int64) {
	f := s.flat
	if f.Leaf(id) {
		first, end := f.LeafRange(id)
		xs, ys, ids := f.X[first:end], f.Y[first:end], f.ID[first:end]
		for len(xs) > 0 {
			n := min(len(xs), batchCap)
			d2 := s.d2[:n]
			geom.DistSqBatch(s.circle.Center, xs[:n], ys[:n], d2)
			for i := range n {
				if d2[i] <= s.r2 {
					s.found.add(xs[i], ys[i], ids[i])
				}
			}
			xs, ys, ids = xs[n:], ys[n:], ids[n:]
		}
		return
	}
	first, end := f.EntRange(id)
	for e := end - 1; e >= first; e-- {
		// Chebyshev screen over the same clamped gaps MinDist uses:
		// exact, so only the borderline children reach the squared
		// screen and, inside its band, the hypot.
		dx := geom.Gap(f.MinX[e], f.MaxX[e], s.circle.Center.X)
		dy := geom.Gap(f.MinY[e], f.MaxY[e], s.circle.Center.Y)
		if geom.Max(dx, dy) > s.rBound {
			continue // MinDist >= max gap > R+Eps: disjoint
		}
		// 1-norm accept (hypot <= dx+dy, slacked for rounding), the
		// squared screen for the borderline ring in between.
		if (dx+dy)*geom.ScreenSlack <= s.rBound || geom.HypotCmp(dx, dy, s.rBound) <= 0 {
			s.queue.Push(client.Candidate{Arrival: s.childArrival(e, slot), Key: f.Key[e], Ent: e})
		}
	}
}
