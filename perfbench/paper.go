package main

// paper-query: the paper's default setting, one caller, closed loop.
// tnnbcast.System.Do back to back over uniform S and R (15,210 points
// each) in PaperRegion, 64-byte pages, preorder (1,m) index, lossless; the
// four algorithms round-robin, each query at a uniform point and a uniform
// issue slot within one cycle. The time goes to core, geom, rtree.Flat
// and the Program's replica-scan arrivals; MemoFeed, FaultFeed, session
// and netfeed are never touched, so this workload is the "no change"
// control for optimizations of those layers.

import (
	"fmt"
	"math/rand"
	"time"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
)

// paperDataSeed fixes the uniform datasets, so the run's seed draws only
// the query stream: across seeds the data moved the page means by several
// percent and the p99 latency by up to a quarter.
const paperDataSeed = 1

const (
	paperPoints  = 15210
	paperQueries = 1 << 14      // the generated stream, replayed cyclically
	paperPageN   = paperQueries // page means cover the stream's first pass
	setupReps    = 15
)

// genQueries draws n queries: uniform points over region, algorithms
// round-robin, issue slots uniform over [0, cycle).
func genQueries(seed int64, n int, region geom.Rect, cycle int64) []query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, n)
	for i := range qs {
		p := geom.Pt(region.Lo.X+rng.Float64()*region.Width(), region.Lo.Y+rng.Float64()*region.Height())
		qs[i] = newQuery(p, algos[i%len(algos)], rng.Int63n(cycle))
	}
	return qs
}

// outcome is the part of a Result the checks and page means need.
type outcome struct {
	found          bool
	dist           float64
	access, tunein int64
	err            bool
}

func runPaperQuery(c config, rep *report) {
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(2*paperDataSeed+1, paperPoints, region)
	r := tnnbcast.UniformDataset(2*paperDataSeed+2, paperPoints, region)
	var buildErr error
	setup, sys := timeSetup(setupReps, func() *tnnbcast.System {
		sys, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region))
		if err != nil {
			buildErr = err
		}
		return sys
	})
	if buildErr != nil {
		rep.fail("tnnbcast.New: %v", buildErr)
		return
	}
	stS, _ := sys.ChannelStats()
	qs := genQueries(c.seed, paperQueries, region, stS.CycleLen)
	if c.trace {
		tracePaperQuery(c, rep, sys, s, r, qs)
		return
	}
	rep.add("setup_s", "s", setup, fmt.Sprintf("tnnbcast.New, median of %d", setupReps))

	for i := range 1024 { // warm caches and the scratch pool
		_, _ = sys.Do(qs[i].request())
	}
	outs := make([]outcome, len(qs))
	var lat durHist
	deadline := c.budget(1)
	m := startMeter()
	n := 0
	for {
		q := &qs[n%len(qs)]
		t0 := time.Now()
		resp, err := sys.Do(q.request())
		t1 := time.Now()
		lat.add(t1.Sub(t0).Nanoseconds())
		res := resp.Result
		if err == nil {
			err = res.Err
		}
		if err != nil {
			rep.failed++
			rep.fail("query %d (%v): %v", n, q.algo, err)
		}
		if n < len(outs) {
			outs[n] = outcome{found: res.Found, dist: res.Dist, access: res.AccessTime, tunein: res.TuneIn, err: err != nil}
		}
		n++
		if n >= paperPageN && t1.Sub(m.start) >= deadline {
			break
		}
	}
	ms := m.end()
	rep.attempted = n

	addCommon(rep, ms, n)
	rep.add("latency_p50_us", "us", lat.quantile(0.5)/1e3, fmt.Sprintf("per Do call, %d samples", lat.total))
	rep.add("latency_p90_us", "us", lat.quantile(0.9)/1e3, "per Do call")
	rep.note("latency p99 %.1f us (not a metric: on this machine it spreads by up to a quarter between runs)", lat.quantile(0.99)/1e3)
	var acc, tun float64
	for _, o := range outs[:paperPageN] {
		acc += float64(o.access)
		tun += float64(o.tunein)
	}
	rep.add("access_pages_mean", "pages", acc/paperPageN, fmt.Sprintf("first %d queries of the stream", paperPageN))
	rep.add("tunein_pages_mean", "pages", tun/paperPageN, "")

	// Correctness, outside the timed region: every exact answer of the
	// first pass equals System.Exact (a query that returned an error has
	// already failed the run).
	wrong := 0
	for i, o := range outs[:min(n, len(outs))] {
		if o.err || !exactAlgo(qs[i].algo) {
			continue
		}
		want, ok := sys.Exact(qs[i].p)
		if !sameAnswer(o.found, o.dist, want.Dist, ok) {
			wrong++
			rep.fail("query %d (%v): broadcast answer %.6f, oracle %.6f", i, qs[i].algo, o.dist, want.Dist)
		}
	}
	rep.failed += wrong
	rep.note("failed_frac %.6g (%d of %d attempted; checked %d answers against System.Exact)",
		float64(rep.failed)/float64(n), rep.failed, n, min(n, len(outs)))
}

// tracePaperQuery is the traced run: the same stream stepped through
// core.QueryExec over decorated channels equivalent to the System's, an
// untraced reference over the same QueryExec path, and the layer ladder.
func tracePaperQuery(c config, rep *report, sys *tnnbcast.System, s, r []geom.Point, qs []query) {
	var bs []built
	for range 3 {
		bs = append(bs, buildIndexes(s, r, broadcast.DefaultParams(), broadcast.IndexSpec{}))
	}
	b := bs[len(bs)-1]
	env := core.Env{
		ChS:    broadcast.NewChannel(b.idxS, 0),
		ChR:    broadcast.NewChannel(b.idxR, 0),
		Region: tnnbcast.PaperRegion,
	}

	l := layers{top: "query"}
	l.treeMs = median(mapf(bs, func(b built) float64 { return b.treeMs }))
	l.indexMs = median(mapf(bs, func(b built) float64 { return b.indexMs }))

	// Traced phase.
	tr := newTracer(false)
	l.tr = tr
	fS, fR := newTracedFeed(env.ChS, nil, nil), newTracedFeed(env.ChR, nil, nil)
	tenv := env
	tenv.ChS, tenv.ChR = fS, fR
	var ex core.QueryExec
	sc := core.NewScratch()
	results := make([]core.Result, 0, len(qs))
	start := time.Now()
	n := 0
	for ; n < 256 || time.Since(start) < c.budget(0.35); n++ {
		q := qs[n%len(qs)]
		qt := tr.begin(q.algo)
		fS.q, fR.q = qt, qt
		res := runStepped(qt, &ex, tenv, q, sc)
		tr.end(qt)
		if n < len(qs) {
			results = append(results, res)
		}
	}
	tracedUs := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	rep.attempted = n
	l.topNs = float64(tr.wallNs)
	for i, res := range results {
		l.clients++
		l.lost += res.Metrics.Lost
		l.retries += res.Metrics.Retries
		l.recovery += res.Metrics.RecoverySlots
		if res.Err != nil {
			rep.failed++
			rep.fail("traced query %d (%v): %v", i, qs[i].algo, res.Err)
		}
	}
	checkTraced(rep, &l, qs, results, sys, 4096)

	// Untraced reference: the same QueryExec loop on the same channels and
	// scratch, without the decorator and the step timing.
	var gaps durHist
	m := startMeter()
	var prevEnd time.Time
	k := 0
	for ; k < 256 || time.Since(m.start) < c.budget(0.15); k++ {
		t0 := time.Now()
		if k > 0 {
			gaps.add(t0.Sub(prevEnd).Nanoseconds())
		}
		runPlain(&ex, env, qs[k%len(qs)], sc)
		prevEnd = time.Now()
	}
	ms := m.end()
	refUs := float64(ms.wall.Nanoseconds()) / 1e3 / float64(k)
	l.gcFrac = ms.gcFrac
	l.lateP99us = gaps.quantile(0.99) / 1e3
	l.overheadFrac = tracedUs/refUs - 1

	l.lad = runLadder(ladderIn{qs: qs, env: env, treeS: b.treeS, treeR: b.treeR, sys: sys, block: 256}, c.budget(0.4))
	l.memoHit, l.sessSteps, l.peakLive = l.lad.memoHit, l.lad.sessSteps, l.lad.peakLive
	l.report(rep)
	rep.note("traced %.1f us/query vs untraced %.1f us/query over %d queries", tracedUs, refUs, k)
	saveSpans(c, rep, tr)
}

// checkTraced checks a traced run's first results: exact answers equal
// the oracle, Approximate-TNN misses are counted (not failures), and the
// first results equal System.Do's on the same queries, which proves the
// traced channels broadcast what the System does.
func checkTraced(rep *report, l *layers, qs []query, results []core.Result, sys *tnnbcast.System, limit int) {
	approx, miss := 0, 0
	for i, res := range results[:min(limit, len(results))] {
		want, ok := sys.Exact(qs[i].p)
		good := sameAnswer(res.Found, res.Pair.Dist, want.Dist, ok)
		if !exactAlgo(qs[i].algo) {
			approx++
			if !good {
				miss++
			}
			continue
		}
		if !good && res.Err == nil {
			rep.failed++
			rep.fail("traced query %d (%v): answer %.6f, oracle %.6f", i, qs[i].algo, res.Pair.Dist, want.Dist)
		}
	}
	l.approxMiss = ratio(float64(miss), float64(approx))
	for i, res := range results[:min(64, len(results))] {
		resp, err := sys.Do(qs[i].request())
		if err != nil {
			rep.fail("System.Do: %v", err)
			return
		}
		d := resp.Result
		if d.Found != res.Found || d.SID != res.Pair.S.ID || d.RID != res.Pair.R.ID ||
			d.AccessTime != res.Metrics.AccessTime || d.TuneIn != res.Metrics.TuneIn || d.Lost != res.Metrics.Lost {
			rep.fail("query %d: traced result differs from System.Do (access %d vs %d, tune-in %d vs %d)",
				i, res.Metrics.AccessTime, d.AccessTime, res.Metrics.TuneIn, d.TuneIn)
		}
	}
}

// mapf applies f to every element of xs.
func mapf[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
