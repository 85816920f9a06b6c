package core

// This file implements the generalized TNN queries the paper lists as
// future work (Section 7):
//
//  1. Chain — more than two datasets, visited in a specified order on k
//     simultaneous channels: minimize dis(p,s1) + dis(s1,s2) + … +
//     dis(s_{k-1},s_k).
//  2. Unordered — two datasets with the visiting order unspecified: the
//     better of (S then R) and (R then S).
//  3. RoundTrip — a complete travel route that returns to the source:
//     minimize dis(p,s) + dis(s,r) + dis(r,p).
//
// QueryExec runs them (and top-k, topk.go) as phases of the Double-NN
// execution; this file holds their joins. All reuse the estimate–filter
// paradigm. The correctness argument is the natural
// generalization of Theorem 1: if d is the length of any *realizable*
// route (built from actual data objects), every object o on a better
// route satisfies dis(p,o) ≤ d by the triangle inequality, so the
// circle(p,d) range queries cover all candidates and the local join finds
// the exact optimum.

import (
	"math"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// MultiEnv is a broadcast environment with one channel per dataset, in
// visiting order.
type MultiEnv struct {
	Chs    []broadcast.Feed
	Region geom.Rect
}

// RunChain answers a chain TNN query across k datasets in a fixed
// visiting order, using all k channels simultaneously, on the peek/step
// loop (see QueryExec.ResetChain).
func RunChain(env MultiEnv, p geom.Point, opt Options) Result {
	var ex QueryExec
	ex.ResetChain(env, p, opt)
	return ex.run()
}

// routeLength returns dis(p, r0) + Σ dis(r_i, r_{i+1}).
func routeLength(p geom.Point, route []rtree.Entry) float64 {
	if len(route) == 0 {
		return 0
	}
	d := geom.Dist(p, route[0].Point)
	for i := 1; i < len(route); i++ {
		d += geom.Dist(route[i-1].Point, route[i].Point)
	}
	return d
}

// chainJoin finds the minimum-length route through the candidate layers by
// dynamic programming, seeded with the incumbent route of length bound.
func chainJoin(p geom.Point, layers [][]rtree.Entry, incumbent []rtree.Entry, bound float64) ([]rtree.Entry, float64, bool) {
	k := len(layers)
	for _, l := range layers {
		if len(l) == 0 {
			// The incumbent is realizable even if a range query came back
			// empty (cannot happen with exact estimates, but keeps the
			// join total).
			return incumbent, bound, len(incumbent) == k
		}
	}
	// cost[j] = best route length from p through layers 0..i ending at
	// layers[i][j]; back[i][j] = predecessor index.
	cost := make([]float64, len(layers[0]))
	back := make([][]int, k)
	for j, e := range layers[0] {
		cost[j] = geom.Dist(p, e.Point)
	}
	for i := 1; i < k; i++ {
		next := make([]float64, len(layers[i]))
		back[i] = make([]int, len(layers[i]))
		for j, e := range layers[i] {
			best := math.Inf(1)
			arg := -1
			for j2, prev := range layers[i-1] {
				if c := cost[j2] + geom.Dist(prev.Point, e.Point); c < best {
					best, arg = c, j2
				}
			}
			next[j], back[i][j] = best, arg
		}
		cost = next
	}
	bestEnd, bestDist := -1, bound
	for j := range layers[k-1] {
		if cost[j] < bestDist {
			bestDist, bestEnd = cost[j], j
		}
	}
	if bestEnd == -1 {
		return incumbent, bound, len(incumbent) == k
	}
	stops := make([]rtree.Entry, k)
	j := bestEnd
	for i := k - 1; i >= 1; i-- {
		stops[i] = layers[i][j]
		j = back[i][j]
	}
	stops[0] = layers[0][j]
	return stops, bestDist, true
}

// joinUnordered joins the candidates in both visiting orders on h, each
// seeded with the estimate pair's route in that order, and returns the
// shorter with sFirst reporting whether it visits S first (ties go to S
// first). The returned pair always carries the S object in S.
func joinUnordered(p geom.Point, inc Pair, fs, fr *pointBuf, h *pairHeap) (pair Pair, sFirst bool) {
	h.join(p, fs, fr, 1, &inc, false)
	pairSR := (*h)[0]
	rFirst := Pair{S: inc.R, R: inc.S, Dist: geom.TransDist(p, inc.R.Point, inc.S.Point)}
	h.join(p, fr, fs, 1, &rFirst, false)
	pairRS := (*h)[0]
	if pairSR.Dist <= pairRS.Dist {
		return pairSR, true
	}
	// pairRS visits R first: its S field holds the R-object.
	return Pair{S: pairRS.R, R: pairRS.S, Dist: pairRS.Dist}, false
}

// tourLength returns dis(p,s) + dis(s,r) + dis(r,p).
func tourLength(p, s, r geom.Point) float64 {
	return geom.Dist(p, s) + geom.Dist(s, r) + geom.Dist(r, p)
}

// OracleChainTNN computes the exact chain answer by layered dynamic
// programming over the full datasets (ground truth for tests; exponential
// savings are not needed at test sizes).
func OracleChainTNN(p geom.Point, trees []*rtree.Tree) ([]rtree.Entry, float64, bool) {
	k := len(trees)
	if k == 0 {
		return nil, 0, false
	}
	layers := make([][]rtree.Entry, k)
	for i, t := range trees {
		if t.Count == 0 {
			return nil, 0, false
		}
		layers[i] = t.Flat().Entries()
	}
	incumbent := make([]rtree.Entry, 0)
	stops, dist, ok := chainJoin(p, layers, incumbent, math.Inf(1))
	if !ok || len(stops) != k {
		return nil, 0, false
	}
	return stops, dist, true
}

// OracleRoundTrip computes the exact round-trip answer by exhaustive
// search (tests only).
func OracleRoundTrip(p geom.Point, treeS, treeR *rtree.Tree) (Pair, bool) {
	ss, rs := treeS.Flat().Entries(), treeR.Flat().Entries()
	best := Pair{Dist: math.Inf(1)}
	found := false
	for _, s := range ss {
		for _, r := range rs {
			d := geom.Dist(p, s.Point) + geom.Dist(s.Point, r.Point) + geom.Dist(r.Point, p)
			if d < best.Dist {
				best = Pair{S: s, R: r, Dist: d}
				found = true
			}
		}
	}
	return best, found
}
