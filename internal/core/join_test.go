package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
)

// joinRef is the screen-free nested loop join must equal: every pair in
// row-major order, kept when its transitive distance beats the bound.
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

// joinTopKRef is the screen-free k-bounded nested loop joinTopK must
// equal, heap ties included.
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
	pairs := make([]Pair, len(h))
	copy(pairs, h)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Dist < pairs[j].Dist })
	return pairs
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

// TestJoinMatchesNestedLoop: the screened join returns the same Pair (==,
// IDs and the float distance included) and found flag as the screen-free
// nested loop, without an incumbent and with incumbents that are beaten,
// tied, and unbeatable. Every R size of joinRSizes comes up in turn. The
// buffers are reused across trials, as a scratch reuses them.
func TestJoinMatchesNestedLoop(t *testing.T) {
	sizes := []int{0, 1, 2, 15, 16, 17, 33, 265, 1045}
	for _, c := range joinCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(131))
			var ss, rs pointBuf
			for trial := 0; trial < 390; trial++ {
				fillBuf(&ss, c.gen(rng, sizes[rng.Intn(len(sizes))]), 0)
				fillBuf(&rs, c.gen(rng, joinRSizes[trial%len(joinRSizes)]), 100000)
				p := c.query(rng)

				incs := []Pair{{}}
				haves := []bool{false}
				if ss.Len() > 0 && rs.Len() > 0 {
					// A random realizable pair, the way the estimate phase
					// seeds the bound.
					si, rj := ss.entry(rng.Intn(ss.Len())), rs.entry(rng.Intn(rs.Len()))
					incs = append(incs, Pair{S: si, R: rj, Dist: geom.TransDist(p, si.Point, rj.Point)})
					haves = append(haves, true)
					if opt, ok := joinRef(p, Pair{}, false, &ss, &rs); ok {
						// The optimum's distance (ties keep the incumbent)
						// and a bound nothing beats; only the placeholder
						// entries' IDs tell them from candidates.
						tied := Pair{S: rtree.Entry{ID: -1}, R: rtree.Entry{ID: -2}, Dist: opt.Dist}
						tight := Pair{S: rtree.Entry{ID: -3}, R: rtree.Entry{ID: -4}, Dist: math.Nextafter(opt.Dist, 0)}
						incs = append(incs, tied, tight)
						haves = append(haves, true, true)
					}
				}
				for k := range incs {
					got, gotOK := join(p, incs[k], haves[k], &ss, &rs)
					want, wantOK := joinRef(p, incs[k], haves[k], &ss, &rs)
					if got != want || gotOK != wantOK {
						t.Fatalf("trial %d (|S|=%d |R|=%d, incumbent %v %+v): join = %+v %v, nested loop = %+v %v",
							trial, ss.Len(), rs.Len(), haves[k], incs[k], got, gotOK, want, wantOK)
					}
				}
			}
		})
	}
}

// TestJoinTopKMatchesNestedLoop: the screened k-bounded join returns the
// same pairs, in the same order, as the screen-free k-bounded nested loop,
// ties included (the grid case), for every R size of joinRSizes in turn.
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
				for _, k := range []int{1, 2, 5, 40} {
					got := joinTopK(p, &ss, &rs, k)
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
			ChS:    broadcast.NewChannel(broadcast.BuildProgram(rtree.Build(city, cfg), p), 7919),
			ChR:    broadcast.NewChannel(broadcast.BuildProgram(rtree.Build(post, cfg), p), 104729),
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
			if ex.qs == nil || ex.qr == nil {
				continue
			}
			in := joinInput{p: q, inc: ex.incumbent, hasInc: ex.haveInc}
			in.ss.appendRun(ex.qs.found.x, ex.qs.found.y, ex.qs.found.id)
			in.rs.appendRun(ex.qr.found.x, ex.qr.found.y, ex.qr.found.id)
			joinInputs = append(joinInputs, in)
		}
	})
	return joinInputs
}

// TestJoinSessionInputs: on the captured session-shaped joins the screened
// join equals the nested loop, and the inputs have the shape the benchmark
// claims (a few hundred × about a thousand candidates on average).
func TestJoinSessionInputs(t *testing.T) {
	var nS, nR int
	for i, in := range sessionJoinInputs() {
		got, gotOK := join(in.p, in.inc, in.hasInc, &in.ss, &in.rs)
		want, wantOK := joinRef(in.p, in.inc, in.hasInc, &in.ss, &in.rs)
		if got != want || gotOK != wantOK {
			t.Fatalf("query %d: join = %+v %v, nested loop = %+v %v", i, got, gotOK, want, wantOK)
		}
		nS += in.ss.Len()
		nR += in.rs.Len()
	}
	n := len(sessionJoinInputs())
	t.Logf("mean |S| = %d, mean |R| = %d over %d joins", nS/n, nR/n, n)
	if nS/n < 100 || nR/n < 500 {
		t.Errorf("candidate sets too small for the benchmark shape: mean |S| = %d, |R| = %d", nS/n, nR/n)
	}
}

// BenchmarkJoin times one client-side join (ns/op per join) on the
// captured session-shaped candidate sets.
func BenchmarkJoin(b *testing.B) {
	ins := sessionJoinInputs()
	found := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &ins[i%len(ins)]
		if _, ok := join(in.p, in.inc, in.hasInc, &in.ss, &in.rs); ok {
			found++
		}
	}
	if found == 0 {
		b.Fatal("no join found a pair")
	}
}
