package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// join1 runs the k = 1 join as the Transitive and RoundTrip queries do:
// seeded by the incumbent when there is one.
func join1(p geom.Point, incumbent Pair, haveIncumbent bool, ss, rs *pointBuf, tour bool) (Pair, bool) {
	var h pairHeap
	var seed *Pair
	if haveIncumbent {
		seed = &incumbent
	}
	h.join(p, ss, rs, 1, seed, tour)
	return h.top()
}

// joinRef is the screen-free nested loop the k = 1 join must equal: every
// pair in row-major order, kept when its transitive distance beats the
// bound.
func joinRef(p geom.Point, incumbent Pair, haveIncumbent bool, ss, rs *pointBuf) (Pair, bool) {
	best, ok := incumbent, haveIncumbent
	d := math.Inf(1)
	if ok {
		d = best.Dist
	}
	for i := range ss.x {
		for j := range rs.x {
			if t := geom.TransDist(p, ss.entry(i).Point, rs.entry(j).Point); t < d {
				d = t
				best = Pair{S: ss.entry(i), R: rs.entry(j), Dist: t}
				ok = true
			}
		}
	}
	return best, ok
}

// joinRoundTripRef is the screen-free round-trip loop the k = 1 tour join
// must equal: the shortest tour through one candidate of each buffer,
// seeded with best (Dist +Inf for no seed). An object s on a better tour
// satisfies dis(p,s) < best.Dist, which screens the outer loop.
func joinRoundTripRef(p geom.Point, best Pair, fs, fr *pointBuf) Pair {
	for i := range fs.x {
		siP := geom.Point{X: fs.x[i], Y: fs.y[i]}
		if geom.Dist(p, siP) >= best.Dist {
			continue
		}
		for j := range fr.x {
			if td := tourLength(p, siP, geom.Point{X: fr.x[j], Y: fr.y[j]}); td < best.Dist {
				best = Pair{S: fs.entry(i), R: fr.entry(j), Dist: td}
			}
		}
	}
	return best
}

// joinTopKRef is the screen-free k-bounded nested loop the k-best join
// must equal, heap ties included.
func joinTopKRef(p geom.Point, ss, rs *pointBuf, k int) []Pair {
	var h pairHeap
	for i := range ss.x {
		for j := range rs.x {
			t := geom.TransDist(p, ss.entry(i).Point, rs.entry(j).Point)
			if len(h) < k {
				h.push(Pair{S: ss.entry(i), R: rs.entry(j), Dist: t})
			} else if t < h[0].Dist {
				h[0] = Pair{S: ss.entry(i), R: rs.entry(j), Dist: t}
				h.fixTop()
			}
		}
	}
	return h.sorted()
}

// checkRoundTrip compares the k = 1 tour join with the plain round-trip
// loop for one seed (Dist +Inf for none).
func checkRoundTrip(t *testing.T, what string, p geom.Point, seed Pair, ss, rs *pointBuf) {
	t.Helper()
	seeded := !math.IsInf(seed.Dist, 1)
	got, gotOK := join1(p, seed, seeded, ss, rs, true)
	want := joinRoundTripRef(p, seed, ss, rs)
	wantOK := !math.IsInf(want.Dist, 1)
	if !wantOK {
		want = Pair{}
	}
	if got != want || gotOK != wantOK {
		t.Fatalf("%s (|S|=%d |R|=%d, seed %+v): tour join = %+v %v, round-trip loop = %+v %v",
			what, ss.Len(), rs.Len(), seed, got, gotOK, want, wantOK)
	}
}

// joinCase is one candidate-set shape of the join differentials.
type joinCase struct {
	name string
	// gen returns n candidate points; the buffer order is the join order.
	gen func(rng *rand.Rand, n int) []geom.Point
	// query draws the query point.
	query func(rng *rand.Rand) geom.Point
}

var joinCases = []joinCase{
	{
		// Unordered uniform points: every run's box spans the region,
		// so the block screen rarely fires.
		name:  "uniform",
		gen:   func(rng *rand.Rand, n int) []geom.Point { return uniformPts(rng, n, testRegion) },
		query: func(rng *rand.Rand) geom.Point { return uniformPts(rng, 1, testRegion)[0] },
	},
	{
		// Leaf-like runs of nearby points, as a range search appends
		// them in broadcast order: most runs are skipped whole. Run
		// lengths do not line up with joinBlock.
		name: "runs",
		gen: func(rng *rand.Rand, n int) []geom.Point {
			pts := make([]geom.Point, 0, n)
			for len(pts) < n {
				c := uniformPts(rng, 1, testRegion)[0]
				for k := 8 + rng.Intn(17); k > 0 && len(pts) < n; k-- {
					pts = append(pts, geom.Pt(c.X+rng.NormFloat64()*10, c.Y+rng.NormFloat64()*10))
				}
			}
			return pts
		},
		query: func(rng *rand.Rand) geom.Point { return uniformPts(rng, 1, testRegion)[0] },
	},
	{
		// A small integer grid: many duplicate points and exactly tied
		// transitive distances, so only the scan order breaks ties.
		name: "grid",
		gen: func(rng *rand.Rand, n int) []geom.Point {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
			}
			return pts
		},
		query: func(rng *rand.Rand) geom.Point {
			return geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
		},
	},
}

// joinRSizes are the R-side candidate counts of the join differentials:
// empty, one point, and either side of one run, one group of runs and
// four groups (joinBlock = 16 points a run, joinGroup = 4 runs a group),
// then larger sets whose last run and last group are partial.
var joinRSizes = []int{0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257, 600, 1045}

// fillBuf loads pts into b with IDs base, base+1, ….
func fillBuf(b *pointBuf, pts []geom.Point, base int32) {
	b.reset()
	for i, q := range pts {
		b.add(q.X, q.Y, base+int32(i))
	}
}

// probeShape reports, for an unseeded k = 1 join, whether the probe row
// (the S candidate nearest p) is not the row of the row-major-first
// optimum, and whether two or more rows tie at the optimum — the shapes
// in which the probe's bound, not its own pair, has to carry the answer.
func probeShape(p geom.Point, ss, rs *pointBuf, tour bool) (offRow, tiedRows bool) {
	if ss.Len() == 0 || rs.Len() == 0 {
		return false, false
	}
	best := make([]float64, ss.Len())
	opt := math.Inf(1)
	for i := range best {
		best[i] = math.Inf(1)
		si := ss.entry(i).Point
		for j := range rs.x {
			t := geom.TransDist(p, si, rs.entry(j).Point)
			if tour {
				t = tourLength(p, si, rs.entry(j).Point)
			}
			best[i] = min(best[i], t)
		}
		opt = min(opt, best[i])
	}
	first, tied := -1, 0
	for i, b := range best {
		if b == opt {
			if first < 0 {
				first = i
			}
			tied++
		}
	}
	return first != ss.nearest(p), tied > 1
}

// TestJoinMatchesNestedLoop: the screened k = 1 join returns the same Pair
// (==, IDs and the float distance included) and found flag as the
// screen-free nested loop, without an incumbent and with incumbents that
// are beaten, tied, and unbeatable; with tour set, it returns the round-
// trip loop's answer for the same kinds of seed. Every R size of
// joinRSizes comes up in turn. The buffers are reused across trials, as a
// scratch reuses them. The unseeded joins, which a probe row bounds, must
// include trials whose optimum lies off the probe row and trials where
// several rows tie at the optimum, for both route kinds; the grid case
// must produce ties.
func TestJoinMatchesNestedLoop(t *testing.T) {
	sizes := []int{0, 1, 2, 15, 16, 17, 33, 265, 1045}
	for _, c := range joinCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(131))
			var ss, rs pointBuf
			var offRow, tiedRows [2]int // by tour
			for trial := 0; trial < 390; trial++ {
				fillBuf(&ss, c.gen(rng, sizes[rng.Intn(len(sizes))]), 0)
				fillBuf(&rs, c.gen(rng, joinRSizes[trial%len(joinRSizes)]), 100000)
				p := c.query(rng)
				for k, tour := range []bool{false, true} {
					off, tied := probeShape(p, &ss, &rs, tour)
					if off {
						offRow[k]++
					}
					if tied {
						tiedRows[k]++
					}
				}

				incs := []Pair{{}}
				haves := []bool{false}
				tours := []Pair{{Dist: math.Inf(1)}}
				if ss.Len() > 0 && rs.Len() > 0 {
					// A random realizable pair, the way the estimate phase
					// seeds the bound.
					si, rj := ss.entry(rng.Intn(ss.Len())), rs.entry(rng.Intn(rs.Len()))
					incs = append(incs, Pair{S: si, R: rj, Dist: geom.TransDist(p, si.Point, rj.Point)})
					haves = append(haves, true)
					tours = append(tours, Pair{S: si, R: rj, Dist: tourLength(p, si.Point, rj.Point)})
					if opt, ok := joinRef(p, Pair{}, false, &ss, &rs); ok {
						// The optimum's distance (ties keep the incumbent)
						// and a bound nothing beats; only the placeholder
						// entries' IDs tell them from candidates.
						tied := Pair{S: rtree.Entry{ID: -1}, R: rtree.Entry{ID: -2}, Dist: opt.Dist}
						tight := Pair{S: rtree.Entry{ID: -3}, R: rtree.Entry{ID: -4}, Dist: math.Nextafter(opt.Dist, 0)}
						incs = append(incs, tied, tight)
						haves = append(haves, true, true)
						// The same for the shortest tour.
						opt = joinRoundTripRef(p, Pair{Dist: math.Inf(1)}, &ss, &rs)
						tied.Dist, tight.Dist = opt.Dist, math.Nextafter(opt.Dist, 0)
						tours = append(tours, tied, tight)
					}
				}
				for k := range incs {
					got, gotOK := join1(p, incs[k], haves[k], &ss, &rs, false)
					want, wantOK := joinRef(p, incs[k], haves[k], &ss, &rs)
					if got != want || gotOK != wantOK {
						t.Fatalf("trial %d (|S|=%d |R|=%d, incumbent %v %+v): join = %+v %v, nested loop = %+v %v",
							trial, ss.Len(), rs.Len(), haves[k], incs[k], got, gotOK, want, wantOK)
					}
				}
				for _, seed := range tours {
					checkRoundTrip(t, fmt.Sprintf("trial %d", trial), p, seed, &ss, &rs)
				}
			}
			t.Logf("unseeded joins with the optimum off the probe row: %v, with tied rows: %v (transitive, tour)",
				offRow, tiedRows)
			if offRow[0] == 0 || offRow[1] == 0 {
				t.Errorf("no unseeded trial put the optimum off the probe row: %v", offRow)
			}
			if c.name == "grid" && (tiedRows[0] == 0 || tiedRows[1] == 0) {
				t.Errorf("no unseeded grid trial tied rows at the optimum: %v", tiedRows)
			}
		})
	}
}

// TestJoinProbeOffRow: hand-built unseeded joins in which the S candidate
// nearest p (the probe row) is not on the best route. In the first, a
// farther S candidate sits next to the only close R candidate; in the
// second, three rows tie at the optimum and the probe row is the last of
// them, so only the bound (not the probe's own pair) may decide, and the
// first tied row in row-major order must win. Both route kinds.
func TestJoinProbeOffRow(t *testing.T) {
	p := geom.Pt(0, 0)
	var ss, rs pointBuf
	for _, tc := range []struct {
		name   string
		s, r   []geom.Point
		wantS  int32
		wantR  int32
		tieRow bool
	}{
		{
			name: "off-row",
			s:    []geom.Point{geom.Pt(1, 0), geom.Pt(0, 3), geom.Pt(-2, 0)},
			r:    []geom.Point{geom.Pt(40, 40), geom.Pt(0, 4), geom.Pt(-50, 9)},
			// Via s0 = (1,0): 1 + hypot(1,4) ≈ 5.12; via s1 = (0,3): 3 + 1 = 4.
			wantS: 1, wantR: 100001,
		},
		{
			name:  "tied-rows",
			s:     []geom.Point{geom.Pt(3, 0), geom.Pt(0, 3), geom.Pt(2, 0), geom.Pt(1, 0)},
			r:     []geom.Point{geom.Pt(9, 9), geom.Pt(4, 0), geom.Pt(0, 4)},
			wantS: 0, wantR: 100001,
			tieRow: true,
		},
	} {
		fillBuf(&ss, tc.s, 0)
		fillBuf(&rs, tc.r, 100000)
		if ss.nearest(p) == int(tc.wantS) {
			t.Fatalf("%s: the probe row is the optimum's row", tc.name)
		}
		got, ok := join1(p, Pair{}, false, &ss, &rs, false)
		want, wantOK := joinRef(p, Pair{}, false, &ss, &rs)
		if got != want || ok != wantOK || got.S.ID != int(tc.wantS) || got.R.ID != int(tc.wantR) {
			t.Errorf("%s: join = %+v %v, nested loop = %+v %v, want S %d R %d",
				tc.name, got, ok, want, wantOK, tc.wantS, tc.wantR)
		}
		if off, tied := probeShape(p, &ss, &rs, false); !off || tied != tc.tieRow {
			t.Errorf("%s: probe shape off-row %v tied %v, want true %v", tc.name, off, tied, tc.tieRow)
		}
		checkRoundTrip(t, tc.name, p, Pair{Dist: math.Inf(1)}, &ss, &rs)
	}
}

// TestJoinTopKMatchesNestedLoop: the screened k-best join, unseeded as
// TopK runs it, returns the same pairs, in the same order, as the
// screen-free k-bounded nested loop, ties included (the grid case), for
// every R size of joinRSizes in turn.
func TestJoinTopKMatchesNestedLoop(t *testing.T) {
	sizes := []int{0, 1, 3, 16, 17, 120, 600}
	for _, c := range joinCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(137))
			var ss, rs pointBuf
			for trial := 0; trial < 195; trial++ {
				fillBuf(&ss, c.gen(rng, sizes[rng.Intn(len(sizes))]), 0)
				fillBuf(&rs, c.gen(rng, joinRSizes[trial%len(joinRSizes)]), 100000)
				p := c.query(rng)
				var h pairHeap
				for _, k := range []int{1, 2, 5, 40} {
					h.join(p, &ss, &rs, k, nil, false)
					got := h.sorted()
					want := joinTopKRef(p, &ss, &rs, k)
					if len(got) != len(want) {
						t.Fatalf("trial %d k=%d: %d pairs, nested loop %d", trial, k, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("trial %d k=%d pair %d: %+v, nested loop %+v", trial, k, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// joinInput is one captured join: the query point, the estimate phase's
// incumbent and the filter phase's candidate sets.
type joinInput struct {
	p      geom.Point
	inc    Pair
	hasInc bool
	ss, rs pointBuf
}

var (
	joinInputsOnce sync.Once
	joinInputs     []joinInput
)

// sessionJoinInputs captures the joins of 64 queries over the CITY (S) ×
// POST (R, scaled to PaperRegion) substitutes, the four algorithms round-
// robin and each client near a random CITY settlement, as in the session
// benchmark workload: on average a few hundred S candidates against about
// a thousand R candidates (Approximate-TNN's wide range dominates),
// appended in broadcast order.
func sessionJoinInputs() []joinInput {
	joinInputsOnce.Do(func() {
		city := dataset.City(2)
		post := dataset.Scale(dataset.Post(2), dataset.PostRegion, dataset.PaperRegion)
		p := broadcast.DefaultParams()
		cfg := rtree.Config{LeafCap: p.LeafCap(), NodeCap: p.NodeCap()}
		env := Env{
			ChS:    broadcast.NewChannel(broadcast.BuildIndex(rtree.Build(city, cfg), p, broadcast.IndexSpec{}), 7919),
			ChR:    broadcast.NewChannel(broadcast.BuildIndex(rtree.Build(post, cfg), p, broadcast.IndexSpec{}), 104729),
			Region: dataset.PaperRegion,
		}
		rng := rand.New(rand.NewSource(5))
		for len(joinInputs) < 64 {
			a := city[rng.Intn(len(city))]
			q := geom.Pt(a.X+rng.NormFloat64()*390, a.Y+rng.NormFloat64()*390)
			algo := []Algo{AlgoWindow, AlgoDouble, AlgoHybrid, AlgoApprox}[len(joinInputs)%4]
			var ex QueryExec
			ex.Reset(env, algo, q, Options{Issue: rng.Int63n(1 << 20)})
			for !ex.Done() {
				ex.Step()
			}
			qs, qr := ex.rgs[0], ex.rgs[1]
			if qs == nil || qr == nil {
				continue
			}
			in := joinInput{p: q, inc: ex.incumbent, hasInc: ex.haveInc}
			in.ss.appendRun(qs.found.x, qs.found.y, qs.found.id)
			in.rs.appendRun(qr.found.x, qr.found.y, qr.found.id)
			joinInputs = append(joinInputs, in)
		}
	})
	return joinInputs
}

// tourSeed is the round-trip seed of a captured join: the estimate pair's
// tour, or Dist +Inf when the query had no estimate pair.
func tourSeed(in *joinInput) Pair {
	if !in.hasInc {
		return Pair{Dist: math.Inf(1)}
	}
	return Pair{S: in.inc.S, R: in.inc.R, Dist: tourLength(in.p, in.inc.S.Point, in.inc.R.Point)}
}

// TestJoinSessionInputs: on the captured session-shaped joins the screened
// join equals the nested loop and the tour join the round-trip loop, and
// the inputs have the shape the benchmark claims (a few hundred × about a
// thousand candidates on average).
func TestJoinSessionInputs(t *testing.T) {
	var nS, nR int
	ins := sessionJoinInputs()
	for i := range ins {
		in := &ins[i]
		got, gotOK := join1(in.p, in.inc, in.hasInc, &in.ss, &in.rs, false)
		want, wantOK := joinRef(in.p, in.inc, in.hasInc, &in.ss, &in.rs)
		if got != want || gotOK != wantOK {
			t.Fatalf("query %d: join = %+v %v, nested loop = %+v %v", i, got, gotOK, want, wantOK)
		}
		checkRoundTrip(t, fmt.Sprintf("query %d", i), in.p, tourSeed(in), &in.ss, &in.rs)
		nS += in.ss.Len()
		nR += in.rs.Len()
	}
	n := len(ins)
	t.Logf("mean |S| = %d, mean |R| = %d over %d joins", nS/n, nR/n, n)
	if nS/n < 100 || nR/n < 500 {
		t.Errorf("candidate sets too small for the benchmark shape: mean |S| = %d, |R| = %d", nS/n, nR/n)
	}
}

// BenchmarkJoin times one client-side join (ns/op per join) on the
// captured session-shaped candidate sets, seeded as the Transitive query
// seeds it.
func BenchmarkJoin(b *testing.B) {
	ins := sessionJoinInputs()
	var h pairHeap
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &ins[i%len(ins)]
		var seed *Pair
		if in.hasInc {
			seed = &in.inc
		}
		if h.join(in.p, &in.ss, &in.rs, 1, seed, false); len(h) > 0 {
			found++
		}
	}
	if found == 0 {
		b.Fatal("no join found a pair")
	}
}

// BenchmarkJoinTopK10 times one k = 10 join and its sorted answer (ns/op
// per join) on BenchmarkJoin's inputs.
func BenchmarkJoinTopK10(b *testing.B) {
	ins := sessionJoinInputs()
	var h pairHeap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &ins[i%len(ins)]
		if h.join(in.p, &in.ss, &in.rs, 10, nil, false); len(h.sorted()) == 0 {
			b.Fatal("no pair")
		}
	}
}

// BenchmarkJoinRoundTrip times one round-trip join on BenchmarkJoin's
// inputs, seeded with the estimate pair's tour where there is one.
func BenchmarkJoinRoundTrip(b *testing.B) {
	ins := sessionJoinInputs()
	seeds := make([]Pair, len(ins))
	for i := range ins {
		seeds[i] = tourSeed(&ins[i])
	}
	var h pairHeap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, seed := &ins[i%len(ins)], &seeds[i%len(ins)]
		if math.IsInf(seed.Dist, 1) {
			seed = nil
		}
		if h.join(in.p, &in.ss, &in.rs, 1, seed, true); len(h) == 0 {
			b.Fatal("no pair")
		}
	}
}
