package core

// Top-k TNN: return the k pairs with the smallest transitive distances.
// The estimate phase generalizes Double-NN: run a k-nearest-neighbor
// search from p on each channel in parallel, pair the i-th neighbors, and
// use d = max_i [dis(p,s_i) + dis(s_i,r_i)] as the radius. The k paired
// routes are realizable and distinct, so the true k-th best distance is at
// most d; every object of every top-k pair then lies within d of p by the
// triangle inequality, and the circle(p,d) range queries cover the join.
// QueryExec runs it: the phTopK estimate phase, then the shared filter
// phase and joinTopK. The final data retrieval downloads only the best
// pair's attributes (the usual interactive pattern: the list is shown,
// one result is opened).

import (
	"math"
	"sort"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/heapx"
	"tnnbcast/internal/rtree"
)

// knnSearch is a backtrack-free k-nearest-neighbor search over the
// broadcast image of an R-tree: like nnSearch but the pruning bound is the
// k-th best actual point distance seen so far (point-backed only — the
// face property guarantees one point per node, not k, so MinMaxDist cannot
// bound a k-NN). Its Peek/Step contract is nnSearch's.
type knnSearch struct {
	rx       *client.Receiver
	flat     *rtree.Flat
	q        geom.Point
	k        int
	queue    client.ArrivalQueue
	dists    []float64 // sorted distances of the best ≤ k points seen
	entries  []rtree.Entry
	started  bool
	finished bool
	next     int64 // cached next-action slot; valid while !finished

	// Loss recovery, mirroring nnSearch.
	faults    int
	maxFaults int
	err       *broadcast.ChannelError

	// cheb is the screen buffer for batched leaf scans.
	cheb [batchCap]float64
}

func newKNNSearch(rx *client.Receiver, q geom.Point, k, maxFaults int) *knnSearch {
	s := new(knnSearch)
	s.init(rx, q, k, maxFaults)
	return s
}

// init (re)initializes the search in place, retaining the queue's and the
// top-k buffers' storage across queries.
func (s *knnSearch) init(rx *client.Receiver, q geom.Point, k, maxFaults int) {
	t := rx.Channel().Index().Tree()
	s.rx = rx
	s.flat = t.Flat()
	s.q = q
	s.k = k
	s.queue.Reset()
	s.dists = s.dists[:0]
	s.entries = s.entries[:0]
	s.started = false
	s.finished = t.Count == 0 || k <= 0
	s.faults = 0
	s.maxFaults = maxFaults
	s.err = nil
	s.resched()
}

// resched mirrors nnSearch.resched: recompute the cached Peek answer.
//
//tnn:noalloc
func (s *knnSearch) resched() {
	if s.finished {
		return
	}
	if !s.started {
		s.next = s.rx.NextRootArrival()
		return
	}
	if s.queue.Len() == 0 {
		s.finished = true
		return
	}
	s.next = s.queue.Peek().Arrival
}

// fault mirrors nnSearch.fault.
func (s *knnSearch) fault(pf *broadcast.PageFault) {
	s.faults++
	if s.faults >= s.maxFaults {
		s.err = &broadcast.ChannelError{Attempts: s.faults, Last: pf}
		s.finished = true
	}
}

// bound returns the current pruning bound: the k-th best point distance,
// or +Inf while fewer than k points have been seen.
func (s *knnSearch) bound() float64 {
	if len(s.dists) < s.k {
		return math.Inf(1)
	}
	return s.dists[s.k-1]
}

// Peek is a pure read of the cached schedule.
//
//tnn:noalloc
func (s *knnSearch) Peek() (int64, bool) {
	return s.next, s.finished
}

// Step has the same recovery protocol as nnSearch.Step: faulted root →
// stay unstarted, faulted candidate → re-file at its next broadcast.
func (s *knnSearch) Step() {
	var id int32
	f := s.flat
	if !s.started {
		// s.next caches the root arrival; the root is preorder node 0.
		if pf := s.rx.DownloadIndexSlot(s.next); pf != nil {
			s.fault(pf)
			s.resched()
			return
		}
		s.started = true
		id = 0
	} else {
		c := s.queue.Pop()
		// Pop-time prune MinDist > bound, screened by the Chebyshev gap
		// (same clamped subtractions, so the short-circuit is exact), the
		// slacked 1-norm accept (hypot <= dx+dy) and the squared screen.
		b := s.bound()
		e := c.Ent
		dx := max(f.MinX[e]-s.q.X, 0, s.q.X-f.MaxX[e])
		dy := max(f.MinY[e]-s.q.Y, 0, s.q.Y-f.MaxY[e])
		if max(dx, dy) > b || ((dx+dy)*geom.ScreenSlack > b && geom.HypotCmp(dx, dy, b) > 0) {
			s.resched()
			return
		}
		// The slot is c.Key's next arrival: the page on air IS node c.Key.
		if pf := s.rx.DownloadIndexSlot(c.Arrival); pf != nil {
			s.queue.Push(client.Candidate{Arrival: s.rx.NextNodeArrival(int(c.Key)), Key: c.Key, Ent: c.Ent})
			s.fault(pf)
			s.resched()
			return
		}
		id = c.Key
	}
	s.faults = 0
	if f.Leaf(id) {
		first, end := f.LeafRange(id)
		xs, ys, ids := f.X[first:end], f.Y[first:end], f.ID[first:end]
		for len(xs) > 0 {
			n := min(len(xs), batchCap)
			cheb := s.cheb[:n]
			geom.DistChebBatch(s.q, xs[:n], ys[:n], cheb)
			for i := range n {
				// With a full top-k, a point whose screen value already
				// exceeds the k-th distance sorts past position k: skip
				// the hypot and the binary search.
				if len(s.dists) == s.k && cheb[i] > s.dists[s.k-1] {
					continue
				}
				s.offerXY(xs[i], ys[i], ids[i])
			}
			xs, ys, ids = xs[n:], ys[n:], ids[n:]
		}
	} else {
		// Reverse entry order, as nnSearch.visitInternal: each push is a
		// tail append on a preorder schedule.
		first, end := f.EntRange(id)
		for e := end - 1; e >= first; e-- {
			key := f.Key[e]
			s.queue.Push(client.Candidate{Arrival: s.rx.NextNodeArrival(int(key)), Key: key, Ent: e})
		}
	}
	s.resched()
}

// offerXY inserts a point (in SoA coordinates) into the running top-k.
func (s *knnSearch) offerXY(x, y float64, id int32) {
	d := math.Hypot(s.q.X-x, s.q.Y-y)
	i := sort.SearchFloat64s(s.dists, d)
	if i >= s.k {
		return
	}
	s.dists = append(s.dists, 0)
	copy(s.dists[i+1:], s.dists[i:])
	s.dists[i] = d
	s.entries = append(s.entries, rtree.Entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = rtree.Entry{Point: geom.Point{X: x, Y: y}, ID: int(id)}
	if len(s.dists) > s.k {
		s.dists = s.dists[:s.k]
		s.entries = s.entries[:s.k]
	}
}

// results returns the ≤ k nearest entries in ascending distance order.
func (s *knnSearch) results() []rtree.Entry { return s.entries }

// pairHeap is a concrete max-heap of pairs by distance (so the worst of
// the best k sits on top), driven by heapx.
type pairHeap []Pair

func pairLess(a, b Pair) bool { return a.Dist > b.Dist }

func (h *pairHeap) push(p Pair) { heapx.Push((*[]Pair)(h), p, pairLess) }

// fixTop restores the heap property after the root was replaced in place —
// the concrete equivalent of container/heap.Fix(h, 0).
func (h pairHeap) fixTop() { heapx.Down(h, 0, len(h), pairLess) }

// topKRadius pairs the i-th nearest neighbors of the two k-NN searches
// (padding the shorter list with its last) and returns the longest of
// these realizable routes, which bounds the k-th best distance.
func topKRadius(p geom.Point, ss, rs []rtree.Entry) float64 {
	d := 0.0
	for i := range max(len(ss), len(rs)) {
		s := ss[min(i, len(ss)-1)]
		r := rs[min(i, len(rs)-1)]
		if t := geom.TransDist(p, s.Point, r.Point); t > d {
			d = t
		}
	}
	return d
}

// joinTopK is the k-bounded join over the SoA found buffers: the k best
// pairs of ss × rs by transitive distance, in ascending order (fewer when
// there are fewer pairs). A max-heap keeps the k best; entries are only
// materialized on a heap insert. The screens are join's, against the k-th
// distance, and only rule pairs out once the heap is full, since until
// then every pair is kept.
func joinTopK(p geom.Point, ss, rs *pointBuf, k int) []Pair {
	var h pairHeap
	kth := math.Inf(1)
	runs := rs.blocks()
	for i := range ss.x {
		six, siy := ss.x[i], ss.y[i]
		dps, far := sDist(p, six, siy, kth)
		if far {
			continue
		}
		// kth is +Inf until the heap is full, so the screens pass every
		// run until then.
		for b := rs.nextRun(0, six, siy, dps, kth); b < runs; b = rs.nextRun(b+1, six, siy, dps, kth) {
			for j := b * joinBlock; j < min((b+1)*joinBlock, len(rs.x)); j++ {
				if len(h) == k {
					m := max(math.Abs(six-rs.x[j]), math.Abs(siy-rs.y[j]))
					if dps+m >= kth {
						continue
					}
				}
				t := dps + math.Hypot(six-rs.x[j], siy-rs.y[j])
				if len(h) < k {
					h.push(Pair{S: ss.entry(i), R: rs.entry(j), Dist: t})
					if len(h) == k {
						kth = h[0].Dist
					}
				} else if t < kth {
					h[0] = Pair{S: ss.entry(i), R: rs.entry(j), Dist: t}
					h.fixTop()
					kth = h[0].Dist
				}
			}
		}
	}
	pairs := make([]Pair, len(h))
	copy(pairs, h)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Dist < pairs[j].Dist })
	return pairs
}

// OracleTopK computes the exact top-k pairs by exhaustive join (tests
// only).
func OracleTopK(p geom.Point, treeS, treeR *rtree.Tree, k int) []Pair {
	var ss, rs []rtree.Entry
	treeS.Preorder(func(n *rtree.Node) { ss = append(ss, n.Entries...) })
	treeR.Preorder(func(n *rtree.Node) { rs = append(rs, n.Entries...) })
	var all []Pair
	for _, s := range ss {
		for _, r := range rs {
			all = append(all, Pair{S: s, R: r, Dist: geom.TransDist(p, s.Point, r.Point)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if len(all) > k {
		all = all[:k]
	}
	return all
}
