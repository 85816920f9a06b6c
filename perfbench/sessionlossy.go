package main

// session-lossy: the shared-cycle engine under lossy air.
// session.Engine.RunStream with one worker per core over a long stream of
// clients arriving in sorted issue order across many cycles, the four
// algorithms round-robin. S is CITY (about 6k points), R is POST (about
// 100k points scaled to PaperRegion), the index is distributed, and both
// channels run a FaultFeed with 1% Gilbert–Elliott loss in bursts of 8,
// seeded as tnnbcast.New seeds it. It exercises what paper-query skips:
// the slot calendar and arenas, MemoFeed reuse across clients sharing a
// slot, SegmentedIndex occurrence-list arrivals, and Receiver loss
// recovery; POST's tree and memo arrays do not fit in cache.

import (
	"fmt"
	"iter"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/session"
)

const (
	sessionPageN    = 8192 // page means cover this prefix of the stream
	sessionEvery    = 97   // every 97th client is checked against its twins
	sessionChecks   = 256
	sessionSetups   = 7
	sessionLoss     = 0.01
	sessionBurst    = 8
	sessionArrivals = 48 // mean client arrivals per R cycle
)

// lossyBroadcast is the workload's broadcast: the lossy channels the
// engine reads and the same channels without faults (the lossless twin).
type lossyBroadcast struct {
	b          built
	env, plain core.Env
	offS, offR int64
	city       []geom.Point // where clients stand
	faults     broadcast.FaultModel
	gap        int64 // mean issue-slot gap between arrivals
}

// buildLossy packs the trees, builds the distributed indexes and wraps
// the channels in fault feeds, deriving per-channel fault seeds as
// tnnbcast.New does.
func buildLossy(city, post []geom.Point, seed int64) lossyBroadcast {
	b := buildIndexes(city, post, broadcast.DefaultParams(), broadcast.IndexSpec{Scheme: broadcast.SchemeDistributed})
	lb := lossyBroadcast{
		b:      b,
		city:   city,
		offS:   floorMod(seed*7919, b.idxS.CycleLen()),
		offR:   floorMod(seed*104729, b.idxR.CycleLen()),
		faults: broadcast.FaultModel{Loss: sessionLoss, Burst: sessionBurst, Seed: uint64(seed)},
		gap:    max(b.idxR.CycleLen()/sessionArrivals, 1),
	}
	chS := broadcast.NewChannel(b.idxS, lb.offS)
	chR := broadcast.NewChannel(b.idxR, lb.offR)
	lb.plain = core.Env{ChS: chS, ChR: chR, Region: tnnbcast.PaperRegion}
	lb.env = core.Env{
		ChS:    broadcast.NewFaultFeed(chS, lb.faults.WithSeed(broadcast.DeriveFaultSeed(lb.faults.Seed, 0))),
		ChR:    broadcast.NewFaultFeed(chR, lb.faults.WithSeed(broadcast.DeriveFaultSeed(lb.faults.Seed, 1))),
		Region: tnnbcast.PaperRegion,
	}
	return lb
}

func floorMod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// clientGen draws the client stream: each client stands near a random
// CITY settlement (Gaussian offset, sd clientJitter), algorithms
// round-robin, issue slots increasing by uniform gaps in [0, 2·gap).
// Clients are where people are: a uniform point would often lie in
// CITY's empty sea, far from every settlement, where the search range
// covers most of POST and a handful of such queries per run decide its
// throughput.
type clientGen struct {
	rng     *rand.Rand
	anchors []geom.Point
	gap     int64
	issue   int64
	i       int
}

// clientJitter is the spread of a client around its settlement, in
// PaperRegion units (1% of the region's side).
const clientJitter = 390

func newClientGen(seed int64, anchors []geom.Point, gap int64) *clientGen {
	return &clientGen{rng: rand.New(rand.NewSource(seed)), anchors: anchors, gap: gap}
}

func (g *clientGen) next() session.Query {
	a := g.anchors[g.rng.Intn(len(g.anchors))]
	p := geom.Pt(a.X+g.rng.NormFloat64()*clientJitter, a.Y+g.rng.NormFloat64()*clientJitter)
	g.issue += g.rng.Int63n(2 * g.gap)
	q := session.Query{Point: p, Algo: algos[g.i%len(algos)], Opt: core.Options{Issue: g.issue}}
	g.i++
	return q
}

// handRingSize is the number of hand-over times the harness keeps: a
// client's slot is reused handRingSize clients later, far more than the
// engine ever holds live (peak live is a few hundred), and a stale slot is
// detected and fails the run.
const handRingSize = 1 << 14

// streamRun is one RunStream over the generated stream, stopped once the
// deadline passes (with at least sessionPageN clients), plus what its
// emits recorded. Its buffers have fixed sizes and are allocated before
// the measured phase, so the harness adds nothing to the allocation and
// heap figures while the engine runs.
type streamRun struct {
	n     int
	wall  time.Duration
	stats session.Stats

	// handed holds, per ring slot, the stream index of the client last
	// handed over there and the time it was handed over (ns since start).
	handed  [handRingSize]struct{ idx, ns atomic.Int64 }
	mu      sync.Mutex
	lat     durHist // per client: wall ns from the stream handing it over to its emit (under mu)
	gen     durHist // per client: ns the generator spent producing it
	outs    [sessionPageN]outcome
	samples []session.Query
	sampled [sessionChecks]core.Result
	errs    atomic.Int64
	stale   atomic.Int64
	errMsg  atomic.Value // the first Result.Err, as a string
}

func newStreamRun() *streamRun {
	return &streamRun{samples: make([]session.Query, 0, sessionChecks)}
}

// run runs the engine over the stream. algoOf maps the stream's algorithm
// to the one the engine runs (the traced run substitutes its timing
// executors).
func (sr *streamRun) run(env core.Env, lb lossyBroadcast, seed int64, d time.Duration, algoOf func(core.Algo) core.Algo) error {
	gen := newClientGen(seed, lb.city, lb.gap)
	var start time.Time
	stream := func(yield func(session.Query) bool) {
		for i := 0; ; i++ {
			if i >= sessionPageN && i&255 == 0 && time.Since(start) >= d {
				return
			}
			t0 := time.Now()
			q := gen.next()
			if i%sessionEvery == 0 && len(sr.samples) < sessionChecks {
				sr.samples = append(sr.samples, q)
			}
			q.Algo = algoOf(q.Algo)
			t1 := time.Now()
			sr.gen.add(t1.Sub(t0).Nanoseconds())
			h := &sr.handed[i%handRingSize]
			h.ns.Store(t1.Sub(start).Nanoseconds())
			h.idx.Store(int64(i))
			sr.n = i + 1
			if !yield(q) {
				return
			}
		}
	}
	emit := func(i int, res core.Result) {
		now := time.Since(start).Nanoseconds()
		h := &sr.handed[i%handRingSize]
		if h.idx.Load() == int64(i) {
			sr.mu.Lock()
			sr.lat.add(now - h.ns.Load())
			sr.mu.Unlock()
		} else {
			sr.stale.Add(1)
		}
		if i < sessionPageN {
			sr.outs[i] = outcome{found: res.Found, dist: res.Pair.Dist, access: res.Metrics.AccessTime, tunein: res.Metrics.TuneIn}
		}
		if i%sessionEvery == 0 && i/sessionEvery < sessionChecks {
			sr.sampled[i/sessionEvery] = res
		}
		if res.Err != nil {
			sr.errs.Add(1)
			sr.errMsg.CompareAndSwap(nil, fmt.Sprintf("client %d: %v", i, res.Err))
		}
	}
	eng := session.New(env, runtime.NumCPU())
	start = time.Now()
	st, err := eng.RunStream(iter.Seq[session.Query](stream), emit)
	sr.wall = time.Since(start)
	sr.stats = st
	return err
}

// failures fails the run for every client whose Result carried an error
// and for a latency the hand-over ring could not attribute.
func (sr *streamRun) failures(rep *report) {
	if n := sr.errs.Load(); n > 0 {
		rep.failed += int(n)
		rep.fail("%d clients returned Result.Err, first %v", n, sr.errMsg.Load())
	}
	if n := sr.stale.Load(); n > 0 {
		rep.fail("%d clients outlived the %d-entry hand-over ring", n, handRingSize)
	}
}

// check compares every sampled client with its twins: a lossless
// sequential core.Run must give the identical answer (faults never change
// answers), and core.Run on the same lossy channels the identical Result.
func (sr *streamRun) check(rep *report, lb lossyBroadcast) {
	for k, q := range sr.samples {
		if k*sessionEvery >= sr.n {
			break
		}
		got := sr.sampled[k]
		opt := core.Options{Issue: q.Opt.Issue}
		plain, _ := core.Run(lb.plain, q.Algo, q.Point, opt)
		lossy, _ := core.Run(lb.env, q.Algo, q.Point, opt)
		if plain.Found != got.Found || plain.Pair != got.Pair {
			rep.failed++
			rep.fail("client %d (%v): lossy answer %.6f differs from the lossless twin's %.6f",
				k*sessionEvery, q.Algo, got.Pair.Dist, plain.Pair.Dist)
		}
		if !reflect.DeepEqual(lossy, got) {
			rep.failed++
			rep.fail("client %d (%v): engine Result differs from core.Run on the same lossy channels (access %d vs %d)",
				k*sessionEvery, q.Algo, got.Metrics.AccessTime, lossy.Metrics.AccessTime)
		}
	}
}

func identity(a core.Algo) core.Algo { return a }

// sessionDataSeed fixes the CITY and POST substitutes: they stand in for
// real datasets, which do not change between runs, and their geography
// sets most of a query's cost. The run's seed draws the client stream and
// the fault pattern.
const sessionDataSeed = 2

func sessionInputs() (city, post []geom.Point) {
	return tnnbcast.CityDataset(sessionDataSeed), tnnbcast.PostDataset(sessionDataSeed, tnnbcast.PaperRegion)
}

func runSessionLossy(c config, rep *report) {
	city, post := sessionInputs()
	var lbs []lossyBroadcast
	setup, lb := timeSetup(sessionSetups, func() lossyBroadcast {
		lb := buildLossy(city, post, c.seed)
		lbs = append(lbs, lb)
		return lb
	})
	if c.trace {
		traceSessionLossy(c, rep, lb, lbs, city, post)
		return
	}
	rep.add("setup_s", "s", setup, fmt.Sprintf("trees + distributed indexes + fault feeds, median of %d", sessionSetups))

	sr := newStreamRun()
	m := startMeter()
	err := sr.run(lb.env, lb, c.seed, c.budget(1), identity)
	ms := m.end()
	if err != nil {
		rep.fail("RunStream: %v", err)
		return
	}
	rep.attempted = sr.n
	sr.failures(rep)
	addCommon(rep, ms, sr.n)
	rep.add("latency_p50_us", "us", sr.lat.quantile(0.5)/1e3, fmt.Sprintf("client sojourn in the engine, %d samples", sr.lat.total))
	rep.add("latency_p90_us", "us", sr.lat.quantile(0.9)/1e3, "client sojourn in the engine")
	var acc, tun float64
	for _, o := range sr.outs {
		acc += float64(o.access)
		tun += float64(o.tunein)
	}
	rep.add("access_pages_mean", "pages", acc/sessionPageN, fmt.Sprintf("first %d clients of the stream", sessionPageN))
	rep.add("tunein_pages_mean", "pages", tun/sessionPageN, "")
	sr.check(rep, lb)
	rep.note("failed_frac %.6g (%d of %d; %d clients checked against lossless and lossy twins); %d steps, peak live %d, %d lost receptions",
		float64(rep.failed)/float64(sr.n), rep.failed, sr.n, len(sr.samples), sr.stats.Steps, sr.stats.PeakLive, sr.stats.Lost)
}

// tracedAlgos are the four algorithms registered as timing executors, so
// the session engine itself steps traced queries; activeTracer receives
// their spans.
var (
	tracedAlgos   [4]core.Algo
	activeTracer  atomic.Pointer[tracer]
	registerOnce  sync.Once
	registerError error
)

func registerTracedAlgos() error {
	registerOnce.Do(func() {
		for i, a := range algos {
			id, err := core.Register(core.AlgoSpec{
				Name: "perfbench-traced-" + a.String(),
				New: func(env core.Env, p geom.Point, opt core.Options) core.Executor {
					return newTimedExec(activeTracer.Load(), a, env, p, opt)
				},
			})
			if err != nil {
				registerError = err
				return
			}
			tracedAlgos[i] = id
		}
	})
	return registerError
}

// timedExec is a built-in QueryExec whose channels are decorated and
// whose Reset and Steps are timed; the session engine drives it like any
// registered executor.
type timedExec struct {
	ex   core.QueryExec
	q    *qtrace
	tr   *tracer
	done bool
}

func newTimedExec(tr *tracer, algo core.Algo, env core.Env, p geom.Point, opt core.Options) *timedExec {
	te := &timedExec{q: tr.begin(algo), tr: tr}
	env = tracedEnv(env, te.q, nil)
	t0 := time.Now()
	te.ex.Reset(env, algo, p, opt)
	te.q.coreNs += time.Since(t0).Nanoseconds()
	return te
}

func (te *timedExec) Peek() (int64, bool) { return te.ex.Peek() }

func (te *timedExec) Step() {
	t0 := time.Now()
	te.ex.Step()
	te.q.coreNs += time.Since(t0).Nanoseconds()
	te.q.steps++
}

func (te *timedExec) Done() bool { return te.ex.Done() }

// Result closes the query span: the engine asks for it exactly once, as
// the client completes.
func (te *timedExec) Result() core.Result {
	if !te.done {
		te.done = true
		te.tr.end(te.q)
	}
	return te.ex.Result()
}

func traceSessionLossy(c config, rep *report, lb lossyBroadcast, lbs []lossyBroadcast, city, post []geom.Point) {
	l := layers{}
	l.treeMs = median(mapf(lbs, func(b lossyBroadcast) float64 { return b.b.treeMs }))
	l.indexMs = median(mapf(lbs, func(b lossyBroadcast) float64 { return b.b.indexMs }))
	if err := registerTracedAlgos(); err != nil {
		rep.fail("registering traced executors: %v", err)
		return
	}

	// Untraced reference.
	ref := newStreamRun()
	m := startMeter()
	err := ref.run(lb.env, lb, c.seed, c.budget(0.25), identity)
	ms := m.end()
	if err != nil {
		rep.fail("RunStream: %v", err)
		return
	}
	refUs := float64(ref.wall.Nanoseconds()) / 1e3 / float64(ref.n)
	l.gcFrac = ms.gcFrac
	l.lateP99us = ref.gen.quantile(0.99) / 1e3

	// Traced run: the engine steps timing executors over decorated
	// channels; a counting feed below the engine's MemoFeed sees what the
	// memo lets through.
	tr := newTracer(false)
	activeTracer.Store(tr)
	var below [nKinds]atomic.Int64
	toTraced := func(a core.Algo) core.Algo { return tracedAlgos[a] }
	sr := newStreamRun()
	if err := sr.run(countingEnv(lb.env, &below), lb, c.seed, c.budget(0.35), toTraced); err != nil {
		rep.fail("RunStream: %v", err)
		return
	}
	tracedUs := float64(sr.wall.Nanoseconds()) / 1e3 / float64(sr.n)
	workers := runtime.NumCPU()
	l.tr = tr
	l.topNs = float64(sr.wall.Nanoseconds()) * float64(workers)
	l.top = fmt.Sprintf("worker time (wall x %d workers)", workers)
	l.clients = int64(sr.stats.Clients)
	l.lost, l.retries, l.recovery = sr.stats.Lost, sr.stats.Retries, sr.stats.RecoverySlots
	l.sessSteps = ratio(float64(sr.stats.Steps), float64(sr.stats.Clients))
	l.peakLive = float64(sr.stats.PeakLive)
	above := tr.calls[kArrival] + tr.calls[kPage] + tr.calls[kReadNode]
	l.memoHit = 1 - ratio(float64(memoizable(&below)), float64(above))
	l.overheadFrac = tracedUs/refUs - 1
	rep.attempted = sr.n
	sr.failures(rep)
	sr.check(rep, lb)

	// Approximate-TNN misses among the sampled clients.
	approx, miss := 0, 0
	for k, q := range sr.samples {
		if k*sessionEvery >= sr.n || exactAlgo(q.Algo) {
			continue
		}
		approx++
		want, ok := core.OracleTNN(q.Point, lb.b.treeS, lb.b.treeR)
		got := sr.sampled[k]
		if !sameAnswer(got.Found, got.Pair.Dist, want.Dist, ok) {
			miss++
		}
	}
	l.approxMiss = ratio(float64(miss), float64(approx))

	// Ladder over a block of the same stream, with System.Do on a System
	// built with the same options (its results must equal core.Run's).
	sys, err := tnnbcast.New(city, post,
		tnnbcast.WithIndexScheme(tnnbcast.DistributedIndex),
		tnnbcast.WithFaults(tnnbcast.FaultModel{Loss: sessionLoss, Burst: sessionBurst, Seed: lb.faults.Seed}),
		tnnbcast.WithRegion(tnnbcast.PaperRegion),
		tnnbcast.WithPhases(lb.offS, lb.offR))
	if err != nil {
		rep.fail("tnnbcast.New: %v", err)
		return
	}
	gen := newClientGen(c.seed, lb.city, lb.gap)
	qs := make([]query, 4096)
	for i := range qs {
		sq := gen.next()
		qs[i] = newQuery(sq.Point, sq.Algo, sq.Opt.Issue)
	}
	for i := range qs[:32] {
		want, _ := core.Run(lb.env, qs[i].algo, qs[i].p, core.Options{Issue: qs[i].issue})
		resp, err := sys.Do(qs[i].request())
		if err != nil || resp.Result.SID != want.Pair.S.ID || resp.Result.AccessTime != want.Metrics.AccessTime ||
			resp.Result.Lost != want.Metrics.Lost {
			rep.fail("query %d: System.Do differs from core.Run on the benchmark's lossy channels", i)
			break
		}
	}
	l.lad = runLadder(ladderIn{qs: qs, env: lb.env, treeS: lb.b.treeS, treeR: lb.b.treeR, sys: sys, block: 128}, c.budget(0.4))
	l.report(rep)
	rep.note("traced %.2f us/query (wall) vs untraced %.2f us/query; engine memo: %d of %d memoizable calls reached the channels",
		tracedUs, refUs, memoizable(&below), above)
	saveSpans(c, rep, tr)
}
