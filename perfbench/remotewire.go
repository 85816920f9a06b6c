package main

// remote-wire: the networked broadcast. An in-process netfeed.Server on
// loopback UDP at the default 2 ms slot, small data as in examples/swarm
// (a few hundred points per side, DataSize 64), and two tnnbcast.Connect
// clients. Closed loop: 56 callers, half on each connection, each
// issuing its next query as soon as the last returns, so tens of queries
// run concurrently on each RemoteSystem and the rate follows the
// latency. Nearly all the time goes to netfeed (WAKE
// subscriptions, the slot clock, replay of already-aired slots, frame
// delivery, shared receptions on one Conn); compute is negligible, so a
// wire change shows here and nowhere else. Traffic crosses loopback, not
// a real link.

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/netfeed"
)

const (
	remotePoints  = 300
	remoteCallers = 56 // closed-loop callers, half on each connection
	remoteSetups  = 15
	remoteQueries = 4096 // the generated stream, replayed cyclically
	remoteMaxRuns = 4096 // outcome slots; a run dispatches no more queries than this
)

// remoteSpec draws the service: uniform S and R over PaperRegion and one
// page per object. The phase offsets are fixed (examples/swarm's), so the
// seed moves the data, not the channels' relative phase, which sets much
// of every query's access time.
func remoteSpec(seed int64) netfeed.Spec {
	params := broadcast.DefaultParams()
	params.DataSize = 64
	return netfeed.Spec{
		Params: params,
		OffS:   7919,
		OffR:   104729,
		Region: tnnbcast.PaperRegion,
		S:      tnnbcast.UniformDataset(3*seed+1, remotePoints, tnnbcast.PaperRegion),
		R:      tnnbcast.UniformDataset(3*seed+2, remotePoints, tnnbcast.PaperRegion),
	}
}

// wireOut is the part of one remote query's outcome the checks and
// metrics read; err is the call's error or else the Result's.
type wireOut struct {
	algo                    core.Algo
	p                       geom.Point
	found                   bool
	dist                    float64
	access, tunein          int64
	lost, retries, recovery int64
	err                     error
}

// wireLoop is one closed-loop run's record. Its buffers have fixed sizes
// and are allocated before the measured phase.
type wireLoop struct {
	outs   []wireOut // by dispatch order
	n      int       // queries dispatched
	mu     sync.Mutex
	lat    durHist // per query: ns from dispatch to return
	gap    durHist // per dispatch after a caller's first: ns since its previous query returned
	inWin  int     // completions inside the counting window
	window time.Duration
}

func newWireLoop() *wireLoop { return &wireLoop{outs: make([]wireOut, remoteMaxRuns)} }

// run keeps remoteCallers queries outstanding for d. Caller w queries
// connection w%2; each time one of its queries returns it takes the next
// stream index k and runs qs[k%len(qs)] through do, so the system's speed,
// not the harness, sets the rate. Queries per second count the completions
// in the last three quarters of d (the first quarter fills the pipeline).
// run returns once every dispatched query has returned.
func (wl *wireLoop) run(qs []query, d time.Duration, do func(w int, q *query) (core.Result, error)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range remoteCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev time.Time
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				k := int(next.Add(1) - 1)
				if k >= len(wl.outs) {
					return
				}
				q := &qs[k%len(qs)]
				res, err := do(w, q)
				t1 := time.Now()
				wl.outs[k] = wireOut{algo: q.algo, p: q.p, found: res.Found, dist: res.Pair.Dist,
					access: res.Metrics.AccessTime, tunein: res.Metrics.TuneIn,
					lost: res.Metrics.Lost, retries: res.Metrics.Retries, recovery: res.Metrics.RecoverySlots,
					err: cmp.Or(err, res.Err)}
				off := t1.Sub(start)
				wl.mu.Lock()
				wl.lat.add(t1.Sub(t0).Nanoseconds())
				if !prev.IsZero() {
					wl.gap.add(t0.Sub(prev).Nanoseconds())
				}
				if off >= d/4 && off < d {
					wl.inWin++
				}
				wl.mu.Unlock()
				prev = t1
			}
		}()
	}
	wg.Wait()
	wl.n = min(int(next.Load()), len(wl.outs))
	wl.window = d - d/4
}

// checkWire checks remote answers against the in-process twin's oracle and
// counts failures; it returns the Approximate-TNN miss share.
func checkWire(rep *report, outs []wireOut, twin *tnnbcast.System) float64 {
	approx, miss := 0, 0
	for k, o := range outs {
		if o.err != nil {
			rep.failed++
			rep.fail("remote query %d (%v): %v", k, o.algo, o.err)
			continue
		}
		want, ok := twin.Exact(o.p)
		good := sameAnswer(o.found, o.dist, want.Dist, ok)
		if !exactAlgo(o.algo) {
			approx++
			if !good {
				miss++
			}
			continue
		}
		if !good {
			rep.failed++
			rep.fail("remote query %d (%v): answer %.6f, oracle %.6f", k, o.algo, o.dist, want.Dist)
		}
	}
	return ratio(float64(miss), float64(approx))
}

// checkDoze checks the real-doze invariant on one connection: every byte
// read off the frame socket belongs to a subscribed frame.
func checkDoze(rep *report, name string, st netfeed.NetStats) {
	if st.BytesRead != st.FramesRead*int64(st.FrameSize) {
		rep.fail("%s: BytesRead %d != FramesRead %d x FrameSize %d", name, st.BytesRead, st.FramesRead, st.FrameSize)
	}
}

// coreResult converts a public Result back to the fields the checks and
// page means read.
func coreResult(r tnnbcast.Result) core.Result {
	var out core.Result
	out.Found = r.Found
	out.Pair.Dist = r.Dist
	out.Pair.S.ID, out.Pair.R.ID = r.SID, r.RID
	out.Metrics.AccessTime, out.Metrics.TuneIn = r.AccessTime, r.TuneIn
	out.Metrics.Lost, out.Metrics.Retries, out.Metrics.RecoverySlots = r.Lost, r.Retries, r.RecoverySlots
	out.Err = r.Err
	return out
}

func runRemoteWire(c config, rep *report) {
	spec := remoteSpec(c.seed)
	twin, err := tnnbcast.New(spec.S, spec.R, tnnbcast.WithRegion(spec.Region),
		tnnbcast.WithDataSize(spec.Params.DataSize), tnnbcast.WithPhases(spec.OffS, spec.OffR))
	if err != nil {
		rep.fail("tnnbcast.New: %v", err)
		return
	}
	stS, _ := twin.ChannelStats()
	qs := genQueries(c.seed, remoteQueries, spec.Region, stS.CycleLen)
	if c.trace {
		traceRemoteWire(c, rep, spec, twin, qs)
		return
	}

	// Setup: NewServer + Start + both Connects (preamble + rebuild),
	// median of remoteSetups. Each set-up but the last, which serves the
	// run, is closed before the next starts, so none competes with a
	// running server.
	type wire struct {
		srv *netfeed.Server
		rss [2]*tnnbcast.RemoteSystem
	}
	closeWire := func(w wire) {
		for _, rs := range w.rss {
			if rs != nil {
				rs.Close()
			}
		}
		if w.srv != nil {
			w.srv.Close()
		}
	}
	var w wire
	defer func() { closeWire(w) }()
	secs := make([]float64, remoteSetups)
	for i := range secs {
		closeWire(w)
		w = wire{}
		t0 := time.Now()
		srv, err := netfeed.NewServer(netfeed.ServerConfig{Spec: spec})
		if err == nil {
			w.srv = srv
			err = srv.Start("127.0.0.1:0")
		}
		for j := range w.rss {
			if err == nil {
				w.rss[j], err = tnnbcast.Connect(srv.Addr().String())
			}
		}
		secs[i] = time.Since(t0).Seconds()
		if err != nil {
			rep.fail("setting up the wire: %v", err)
			return
		}
	}
	setup := median(secs)
	rep.add("setup_s", "s", setup, fmt.Sprintf("NewServer + Start + 2 Connects, median of %d", remoteSetups))

	wl := newWireLoop()
	m := startMeter()
	wl.run(qs, c.budget(1), func(i int, q *query) (core.Result, error) {
		resp, err := w.rss[i%2].Do(tnnbcast.Request{Point: q.p, Algo: tnnbcast.Algorithm(q.algo)})
		return coreResult(resp.Result), err
	})
	ms := m.end()
	outs := wl.outs[:wl.n]
	reportWire(rep, wl, ms)
	checkWire(rep, outs, twin)
	for i, rs := range w.rss {
		st := rs.NetStats()
		checkDoze(rep, fmt.Sprintf("connection %d", i), netfeed.NetStats{BytesRead: st.BytesRead, FramesRead: st.FramesRead, FrameSize: st.FrameSize})
	}
	rep.note("failed_frac %.6g (%d of %d); %d callers in a closed loop; exact answers checked against the in-process twin",
		float64(rep.failed)/float64(len(outs)), rep.failed, len(outs), remoteCallers)
}

// reportWire reports the end-to-end metrics of a closed-loop run.
func reportWire(rep *report, wl *wireLoop, ms measured) {
	outs := wl.outs[:wl.n]
	rep.attempted = len(outs)
	var acc, tun float64
	for _, o := range outs {
		acc += float64(o.access)
		tun += float64(o.tunein)
	}
	n := float64(len(outs))
	rep.add("queries_per_s", "1/s", float64(wl.inWin)/wl.window.Seconds(),
		fmt.Sprintf("%d completions in the last %.2fs of the run, %d callers", wl.inWin, wl.window.Seconds(), remoteCallers))
	rep.add("latency_p50_us", "us", wl.lat.quantile(0.5)/1e3, fmt.Sprintf("per query, call to return, %d samples", wl.lat.total))
	rep.add("latency_p90_us", "us", wl.lat.quantile(0.9)/1e3, "per query, call to return")
	rep.add("cpu_us_per_query", "us", ms.cpu*1e6/n, "getrusage user+system: server, both clients, harness")
	rep.add("alloc_bytes_per_query", "B", float64(ms.alloc)/n, "runtime /gc/heap/allocs:bytes")
	rep.add("heap_peak_mb", "MB", float64(ms.heapPeakB)/(1<<20), "peak /memory/classes/heap/objects:bytes, 25ms samples")
	rep.add("access_pages_mean", "pages", acc/n, "all queries")
	rep.add("tunein_pages_mean", "pages", tun/n, "")
}

func traceRemoteWire(c config, rep *report, spec netfeed.Spec, twin *tnnbcast.System, qs []query) {
	l := layers{top: "query"}
	var bs []built
	for range 3 {
		bs = append(bs, buildIndexes(spec.S, spec.R, spec.Params, broadcast.IndexSpec{}))
	}
	l.treeMs = median(mapf(bs, func(b built) float64 { return b.treeMs }))
	l.indexMs = median(mapf(bs, func(b built) float64 { return b.indexMs }))

	// Setup, split: server image precompute, then Start + dial + preamble
	// + rebuild. The traced path dials netfeed directly so its decorator
	// can sit on Conn.FeedS/FeedR.
	type wire struct {
		srv   *netfeed.Server
		conns [2]*netfeed.Conn
	}
	closeWire := func(w wire) {
		for _, cn := range w.conns {
			if cn != nil {
				cn.Close()
			}
		}
		if w.srv != nil {
			w.srv.Close()
		}
	}
	var w wire
	defer func() { closeWire(w) }()
	var images, dials []float64
	for range remoteSetups {
		closeWire(w)
		w = wire{}
		t0 := time.Now()
		srv, err := netfeed.NewServer(netfeed.ServerConfig{Spec: spec})
		if err != nil {
			rep.fail("netfeed.NewServer: %v", err)
			return
		}
		t1 := time.Now()
		w.srv = srv
		if err := srv.Start("127.0.0.1:0"); err != nil {
			rep.fail("starting the server: %v", err)
			return
		}
		for i := range w.conns {
			if w.conns[i], err = netfeed.Dial(srv.Addr().String(), netfeed.DialConfig{}); err != nil {
				rep.fail("dial: %v", err)
				return
			}
		}
		images = append(images, t1.Sub(t0).Seconds())
		dials = append(dials, time.Since(t1).Seconds())
	}
	total := median(images) + median(dials)
	l.imagesFrac, l.dialFrac = median(images)/total, median(dials)/total
	l.preambleBytes = float64(w.conns[0].Stats().PreambleBytes)

	// Traced phase: each caller steps its own QueryExec over decorated
	// channels of its connection.
	execs := make([]core.QueryExec, remoteCallers)
	scs := make([]*core.Scratch, remoteCallers)
	for i := range scs {
		scs[i] = core.NewScratch()
	}
	remoteEnv := func(i int) (core.Env, *netfeed.Conn) {
		conn := w.conns[i%2]
		return core.Env{ChS: conn.FeedS(), ChR: conn.FeedR(), Region: spec.Region}, conn
	}
	tr := newTracer(true)
	l.tr = tr
	before := [2]netfeed.NetStats{w.conns[0].Stats(), w.conns[1].Stats()}
	traced := newWireLoop()
	start := time.Now()
	traced.run(qs, c.budget(0.45), func(i int, q *query) (core.Result, error) {
		env, conn := remoteEnv(i)
		qt := tr.begin(q.algo)
		res := runStepped(qt, &execs[i], tracedEnv(env, qt, conn), query{p: q.p, algo: q.algo, issue: conn.NextIssueSlot()}, scs[i])
		tr.end(qt)
		return res, conn.Err()
	})
	tracedWall := time.Since(start)
	outs := traced.outs[:traced.n]
	rep.attempted = len(outs)
	l.approxMiss = checkWire(rep, outs, twin)
	l.topNs = float64(tr.wallNs)
	var frames, bytesRead, rtt float64
	for i, cn := range w.conns {
		st := cn.Stats()
		checkDoze(rep, fmt.Sprintf("connection %d", i), st)
		frames += float64(st.FramesRead - before[i].FramesRead)
		bytesRead += float64(st.BytesRead - before[i].BytesRead)
		rtt += float64(st.HeartbeatRTT) / float64(cn.SlotDur()) / 2
	}
	l.shared = 1 - ratio(frames, float64(tr.receptions()))
	l.wireBytesPerQuery = bytesRead / float64(len(outs))
	l.heartbeatSlots = rtt
	for _, o := range outs {
		l.clients++
		l.lost += o.lost
		l.retries += o.retries
		l.recovery += o.recovery
	}

	// Untraced reference: the same QueryExec path on the same connections,
	// without the decorator and the step timing.
	ref := newWireLoop()
	m := startMeter()
	ref.run(qs, c.budget(0.3), func(i int, q *query) (core.Result, error) {
		env, conn := remoteEnv(i)
		res := runPlain(&execs[i], env, query{p: q.p, algo: q.algo, issue: conn.NextIssueSlot()}, scs[i])
		return res, conn.Err()
	})
	ms := m.end()
	checkWire(rep, ref.outs[:ref.n], twin)
	l.gcFrac = ms.gcFrac
	l.lateP99us = ref.gap.quantile(0.99) / 1e3
	l.overheadFrac = traced.lat.mean()/ref.lat.mean() - 1

	l.lad = runLadder(ladderIn{qs: qs, env: core.Env{
		ChS:    broadcast.NewChannel(bs[0].idxS, spec.OffS),
		ChR:    broadcast.NewChannel(bs[0].idxR, spec.OffR),
		Region: spec.Region,
	}, treeS: bs[0].treeS, treeR: bs[0].treeR, sys: twin, block: 256}, c.budget(0.2))
	l.memoHit, l.sessSteps, l.peakLive = l.lad.memoHit, l.lad.sessSteps, l.lad.peakLive
	l.report(rep)
	rep.note("traced phase %.1fs: mean latency %.0f us traced vs %.0f us untraced; ladder runs on the in-process twin",
		tracedWall.Seconds(), traced.lat.mean()/1e3, ref.lat.mean()/1e3)
	saveSpans(c, rep, tr)
}
