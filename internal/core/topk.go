package core

// Top-k TNN: return the k pairs with the smallest transitive distances.
// The estimate phase generalizes Double-NN: run a k-nearest-neighbor
// search from p on each channel in parallel, pair the i-th neighbors, and
// use d = max_i [dis(p,s_i) + dis(s_i,r_i)] as the radius. The k paired
// routes are realizable and distinct, so the true k-th best distance is at
// most d; every object of every top-k pair then lies within d of p by the
// triangle inequality, and the circle(p,d) range queries cover the join.
// QueryExec runs it: the phTopK estimate phase, then the shared filter
// phase and the k-best join. The final data retrieval downloads only the
// best pair's attributes (the usual interactive pattern: the list is
// shown, one result is opened).

import (
	"math"
	"sort"

	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// knnSearch is a backtrack-free k-nearest-neighbor search on an airWalk:
// like nnSearch but the pruning bound is the k-th best actual point
// distance seen so far (point-backed only — the face property guarantees
// one point per node, not k, so MinMaxDist cannot bound a k-NN).
type knnSearch struct {
	airWalk
	q       geom.Point
	k       int
	dists   []float64 // sorted distances of the best ≤ k points seen
	entries []rtree.Entry

	// cheb is the screen buffer for batched leaf scans.
	cheb [batchCap]float64
}

// init (re)initializes the search in place, retaining the queue's and the
// top-k buffers' storage across queries.
func (s *knnSearch) init(rx *client.Receiver, q geom.Point, k, maxFaults int) {
	s.airWalk.reset(rx, maxFaults, k <= 0)
	s.q = q
	s.k = k
	s.dists = s.dists[:0]
	s.entries = s.entries[:0]
}

// bound returns the current pruning bound: the k-th best point distance,
// or +Inf while fewer than k points have been seen.
func (s *knnSearch) bound() float64 {
	if len(s.dists) < s.k {
		return math.Inf(1)
	}
	return s.dists[s.k-1]
}

// Step performs one action: receive the root or the next unpruned
// candidate and visit it.
func (s *knnSearch) Step() {
	if c, root := s.pop(); (root || !s.pruned(c)) && s.receive(c) {
		s.visit(c.Key, c.Arrival)
	}
	s.resched()
}

// pruned is the pop-time prune MinDist > bound, screened by the Chebyshev
// gap (same clamped subtractions, so the short-circuit is exact), the
// slacked 1-norm accept (hypot <= dx+dy) and the squared screen.
func (s *knnSearch) pruned(c client.Candidate) bool {
	f := s.flat
	b := s.bound()
	e := c.Ent
	dx := geom.Gap(f.MinX[e], f.MaxX[e], s.q.X)
	dy := geom.Gap(f.MinY[e], f.MaxY[e], s.q.Y)
	return geom.Max(dx, dy) > b || ((dx+dy)*geom.ScreenSlack > b && geom.HypotCmp(dx, dy, b) > 0)
}

// visit offers a leaf's points to the running top-k, or queues the
// children of an internal node received at slot.
func (s *knnSearch) visit(id int32, slot int64) {
	f := s.flat
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
		return
	}
	first, end := f.EntRange(id)
	for e := end - 1; e >= first; e-- {
		s.queue.Push(client.Candidate{Arrival: s.childArrival(e, slot), Key: f.Key[e], Ent: e})
	}
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

// OracleTopK computes the exact top-k pairs by exhaustive join (tests
// only).
func OracleTopK(p geom.Point, treeS, treeR *rtree.Tree, k int) []Pair {
	ss, rs := treeS.Flat().Entries(), treeR.Flat().Entries()
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
