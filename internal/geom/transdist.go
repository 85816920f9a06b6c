package geom

import "math"

// This file implements the transitive-distance metrics the paper introduces
// for the Hybrid-NN-Search algorithm (Section 4.2.1):
//
//   MinTransDist(p, M, r)     — the minimum of dis(p,s)+dis(s,r) over all
//                               points s of the MBR M (a tight lower bound
//                               on the transitive distance via any data
//                               point inside M);
//   MaxDist(p, ℓ, r)          — a tight upper bound on dis(p,v)+dis(v,r)
//                               over points v of segment ℓ;
//   MinMaxTransDist(p, M, r)  — the minimum of MaxDist over the four sides
//                               of M: by the MBR face property every face
//                               carries at least one data point, so some
//                               data point in M has transitive distance at
//                               most MinMaxTransDist.

// MinTransDist returns min over s ∈ M of dis(p,s) + dis(s,r), where M is
// treated as a solid rectangle. The paper's three-case construction:
//
//  1. If segment pr intersects M the straight path passes through the
//     rectangle: the minimum is dis(p,r).
//  2. Otherwise, for each side ℓ of M with p and r strictly on the same
//     side of the line through ℓ, reflect r across that line; if the
//     segment from p to the reflection crosses ℓ itself, the shortest
//     bounce path touches ℓ at that crossing and has length dis(p, r').
//  3. Otherwise the optimum is achieved at a corner:
//     min over vertices v of dis(p,v) + dis(v,r).
//
// The implementation takes the minimum over all valid case-2 reflections
// and all case-3 corners, which equals the paper's case analysis (for each
// side, the per-side optimum is the reflection crossing when it exists and
// a corner otherwise, by convexity of the per-side objective).
func MinTransDist(p Point, m Rect, r Point) float64 {
	if m.IsEmpty() {
		return math.Inf(1)
	}
	if m.IntersectsSegment(p, r) {
		return Dist(p, r)
	}
	best := math.Inf(1)
	for _, side := range m.Sides() {
		a, b := side[0], side[1]
		if !SameStrictSide(p, r, a, b) {
			continue
		}
		rr := ReflectAcrossLine(r, a, b)
		if SegmentsIntersect(p, rr, a, b) {
			if d := Dist(p, rr); d < best {
				best = d
			}
		}
	}
	for _, v := range m.Vertices() {
		if d := Dist(p, v) + Dist(v, r); d < best {
			best = d
		}
	}
	return best
}

// SegMaxDist returns the paper's MaxDist(p, ℓ, r) for the segment ℓ = ab:
// the larger of the transitive distances via the two endpoints. By
// convexity of v ↦ dis(p,v)+dis(v,r) this is a tight upper bound over all
// points of the segment (Lemma 2).
func SegMaxDist(p, a, b, r Point) float64 {
	return Max(Dist(p, a)+Dist(a, r), Dist(p, b)+Dist(b, r))
}

// MinMaxTransDist returns min over the four sides ℓ of M of
// SegMaxDist(p, ℓ, r) (Definition 3). By the MBR face property, M contains
// at least one data point s with dis(p,s)+dis(s,r) ≤ MinMaxTransDist(p,M,r)
// (Lemma 3), making it a valid upper-bound update during transitive
// branch-and-bound search.
func MinMaxTransDist(p Point, m Rect, r Point) float64 {
	if m.IsEmpty() {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, side := range m.Sides() {
		if d := SegMaxDist(p, side[0], side[1], r); d < best {
			best = d
		}
	}
	return best
}
