package main

import (
	"slices"
	"sync/atomic"
	"time"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/rtree"
	"tnnbcast/internal/session"
)

// query is one generated query: the point, the algorithm, the issue
// slot, and the public-API options carrying that slot (built before any
// timed region, so the harness allocates nothing per query).
type query struct {
	p     geom.Point
	algo  core.Algo
	issue int64
	opts  []tnnbcast.QueryOption
}

// algos is the round-robin algorithm rotation of every workload.
var algos = [4]core.Algo{core.AlgoWindow, core.AlgoDouble, core.AlgoHybrid, core.AlgoApprox}

func newQuery(p geom.Point, algo core.Algo, issue int64) query {
	return query{p: p, algo: algo, issue: issue, opts: []tnnbcast.QueryOption{tnnbcast.WithIssue(issue)}}
}

// request returns q as a public-API request.
func (q *query) request() tnnbcast.Request {
	return tnnbcast.Request{Point: q.p, Algo: tnnbcast.Algorithm(q.algo), Options: q.opts}
}

// exactAlgo reports whether a's answers must equal the oracle's.
func exactAlgo(a core.Algo) bool { return a != core.AlgoApprox }

// sameAnswer reports whether a broadcast answer matches the oracle's
// transitive distance want (ok: the oracle found a pair), to rounding —
// ties between equidistant pairs are legitimate.
func sameAnswer(found bool, dist, want float64, ok bool) bool {
	if !ok {
		return !found
	}
	return found && dist <= want*(1+1e-9) && dist >= want*(1-1e-9)
}

// built is a pair of packed trees and their air indexes, with the time
// each took.
type built struct {
	treeS, treeR    *rtree.Tree
	idxS, idxR      broadcast.AirIndex
	treeMs, indexMs float64
}

// buildIndexes packs both trees and builds their air indexes exactly as
// tnnbcast.New and netfeed's schedule do.
func buildIndexes(s, r []geom.Point, params broadcast.Params, spec broadcast.IndexSpec) built {
	rcfg := rtree.Config{LeafCap: params.LeafCap(), NodeCap: params.NodeCap(), Packing: rtree.STR}
	t0 := time.Now()
	b := built{treeS: rtree.Build(s, rcfg), treeR: rtree.Build(r, rcfg)}
	t1 := time.Now()
	b.idxS = broadcast.BuildIndex(b.treeS, params, spec)
	b.idxR = broadcast.BuildIndex(b.treeR, params, spec)
	b.treeMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	b.indexMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	return b
}

// sessionQueries converts qs to session queries sorted by issue slot.
func sessionQueries(qs []query) []session.Query {
	out := make([]session.Query, len(qs))
	for i, q := range qs {
		out[i] = session.Query{Point: q.p, Algo: q.algo, Opt: core.Options{Issue: q.issue}}
	}
	slices.SortStableFunc(out, func(a, b session.Query) int {
		switch {
		case a.Opt.Issue < b.Opt.Issue:
			return -1
		case a.Opt.Issue > b.Opt.Issue:
			return 1
		}
		return 0
	})
	return out
}

// ladderIn is one workload's input to the layer ladder.
type ladderIn struct {
	qs           []query
	env          core.Env // the workload's channels, without a memo
	treeS, treeR *rtree.Tree
	sys          *tnnbcast.System // a System over the same broadcast, for System.Do
	block        int              // queries per row per round
}

// ladderOut holds the ladder rows in µs per query (medians over rounds)
// and the counts its untimed pass takes.
type ladderOut struct {
	oracle, plain, memo, do, stream float64
	doOver, streamOver              float64 // medians of the per-round do-plain and stream-memo
	rounds                          int
	memoHit                         float64 // 1 - calls under the engine's memo / calls via core.Run
	sessSteps, peakLive             float64
}

// runLadder runs the same query blocks down progressively deeper stacks:
//
//	oracle  core.OracleTNN on the trees: the rtree/geom floor, no air
//	plain   core.Run on the workload's channels
//	memo    core.Run on MemoFeed-wrapped channels
//	do      System.Do: the public request pipeline
//	stream  session.Engine.RunStream with one worker
//
// Rows are interleaved within each round, their order rotating, and each
// row reports its median over rounds; a difference between rows is the
// median of its per-round differences.
func runLadder(in ladderIn, budget time.Duration) ladderOut {
	memoEnv := in.env
	memoEnv.ChS = broadcast.NewMemoFeed(in.env.ChS)
	memoEnv.ChR = broadcast.NewMemoFeed(in.env.ChR)
	sc := core.NewScratch()
	run := func(env core.Env, b []query) {
		for i := range b {
			core.Run(env, b[i].algo, b[i].p, core.Options{Issue: b[i].issue, Scratch: sc})
		}
	}
	var stream []session.Query
	rows := []func(b []query){
		func(b []query) {
			for i := range b {
				core.OracleTNN(b[i].p, in.treeS, in.treeR)
			}
		},
		func(b []query) { run(in.env, b) },
		func(b []query) { run(memoEnv, b) },
		func(b []query) {
			for i := range b {
				_, _ = in.sys.Do(b[i].request()) // timed only; answers are checked elsewhere
			}
		},
		func([]query) {
			session.New(in.env, 1).RunStream(slices.Values(stream), func(int, core.Result) {})
		},
	}
	per := make([][]float64, len(rows))
	start := time.Now()
	var out ladderOut
	for r := 0; r < 3 || time.Since(start) < budget; r++ {
		lo := (r * in.block) % len(in.qs)
		b := in.qs[lo:min(lo+in.block, len(in.qs))]
		stream = sessionQueries(b)
		for i := range rows {
			k := (i + r) % len(rows)
			t0 := time.Now()
			rows[k](b)
			per[k] = append(per[k], float64(time.Since(t0).Nanoseconds())/1e3/float64(len(b)))
		}
		out.rounds++
	}
	out.oracle, out.plain, out.memo, out.do, out.stream =
		median(per[0]), median(per[1]), median(per[2]), median(per[3]), median(per[4])
	diff := func(a, b []float64) []float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return d
	}
	out.doOver, out.streamOver = median(diff(per[3], per[1])), median(diff(per[4], per[2]))

	// Untimed counting pass over the first block: the calls the clients
	// make via core.Run without a memo, against the calls that reach the
	// channels under the engine's MemoFeed.
	b := in.qs[:min(in.block, len(in.qs))]
	var above, below [nKinds]atomic.Int64
	run(countingEnv(in.env, &above), b)
	st, _ := session.New(countingEnv(in.env, &below), 1).RunStream(slices.Values(sessionQueries(b)), func(int, core.Result) {})
	out.memoHit = 1 - ratio(float64(memoizable(&below)), float64(memoizable(&above)))
	out.sessSteps = ratio(float64(st.Steps), float64(st.Clients))
	out.peakLive = float64(st.PeakLive)
	return out
}

// layers gathers a traced run's figures; report turns them into the
// per-layer metrics, the same way on every workload. A figure a workload
// cannot have (no wire, no memo) stays 0.
type layers struct {
	tr    *tracer
	topNs float64 // time of the span attribution is taken against
	top   string  // its name

	clients                 int64 // results the client counters cover
	lost, retries, recovery int64
	approxMiss              float64

	lad                 ladderOut
	memoHit             float64 // engine memo hit share when the run measured one; else the ladder's
	sessSteps, peakLive float64 // from the traced engine run when there is one; else the ladder's

	shared, heartbeatSlots, wireBytesPerQuery float64
	treeMs, indexMs, imagesFrac, dialFrac     float64
	preambleBytes                             float64

	gcFrac       float64
	lateP99us    float64
	overheadFrac float64
}

func (l *layers) report(rep *report) {
	t := l.tr
	q := float64(t.queries)
	feedNs := 0.0
	for _, v := range t.ns {
		feedNs += float64(v)
	}
	selfNs := float64(t.coreNs) - feedNs
	recv := float64(t.receptions())
	reads := float64(t.calls[kPage] + t.calls[kReadNode] + t.calls[kFault])
	readNs := float64(t.ns[kPage] + t.ns[kReadNode] + t.ns[kFault])

	rep.add("core.steps_per_query", "count", ratio(float64(t.steps), q), "Step calls per traced query")
	rep.add("core.self_ns_per_step", "ns", ratio(selfNs, float64(t.steps)), "(Reset+Step time - feed calls) / steps; holds geom, rtree.Flat, client")
	rep.add("core.self_share", "frac", ratio(selfNs, l.topNs), "core self time / "+l.top)
	for i, name := range []string{"window", "double", "hybrid", "approx"} {
		rep.add("core.us_per_query."+name, "us", ratio(float64(t.algoNs[i]), float64(t.algoN[i]))/1e3, "traced query span, "+algos[i].String())
	}
	rep.add("core.approx_miss_frac", "frac", l.approxMiss, "Approximate-TNN answers worse than the oracle")

	rep.add("broadcast.arrival_calls_per_query", "count", ratio(float64(t.calls[kArrival]), q), "Next*Arrival calls")
	rep.add("broadcast.arrival_ns_per_call", "ns", ratio(float64(t.ns[kArrival]), float64(t.calls[kArrival])), "")
	rep.add("broadcast.read_calls_per_query", "count", ratio(reads, q), "PageAt+ReadNode+Fault calls")
	rep.add("broadcast.read_ns_per_call", "ns", ratio(readNs, reads), "")
	rep.add("broadcast.memo_hit_frac", "frac", l.memoHit, "1 - calls under the engine's MemoFeed / calls via core.Run")
	rep.add("broadcast.fault_frac", "frac", ratio(float64(t.faults), recv), "faulted receptions / receptions")

	c := float64(l.clients)
	rep.add("client.lost_per_query", "count", ratio(float64(l.lost), c), "Result.Lost")
	rep.add("client.retries_per_query", "count", ratio(float64(l.retries), c), "Result.Retries")
	rep.add("client.recovery_slots_per_query", "slots", ratio(float64(l.recovery), c), "Result.RecoverySlots")

	rep.add("session.steps_per_query", "count", l.sessSteps, "session Stats.Steps / clients")
	rep.add("session.peak_live", "count", l.peakLive, "session Stats.PeakLive")
	rep.add("session.overhead_us_per_query", "us", l.lad.streamOver, "ladder: RunStream - core.Run on MemoFeed")
	rep.add("tnnbcast.do_overhead_ns", "ns", l.lad.doOver*1e3, "ladder: System.Do - core.Run")

	rep.add("netfeed.receptions_per_query", "count", ratio(recv, q), "ReadNode+Fault calls")
	rep.add("netfeed.wait_us_mean", "us", t.waits.mean()/1e3, "time blocked in one reception")
	rep.add("netfeed.wait_us_p90", "us", t.waits.quantile(0.9)/1e3, "")
	rep.add("netfeed.replay_frac", "frac", ratio(float64(t.replays), recv), "receptions of slots already aired")
	rep.add("netfeed.lag_slots_mean", "slots", ratio(float64(t.lag), float64(t.replays)), "live slot - slot, over replayed receptions")
	rep.add("netfeed.lost_frac", "frac", ratio(float64(t.lost), recv), "lost receptions / receptions")
	rep.add("netfeed.shared_frac", "frac", l.shared, "1 - frames read / receptions")
	rep.add("netfeed.heartbeat_rtt_slots", "slots", l.heartbeatSlots, "PING/PONG round trip in slots")
	rep.add("netfeed.wire_bytes_per_query", "B", l.wireBytesPerQuery, "NetStats.BytesRead / queries")

	rep.add("setup.rtree_build_ms", "ms", l.treeMs, "rtree.Build of both datasets")
	rep.add("setup.index_build_ms", "ms", l.indexMs, "broadcast.BuildIndex of both trees")
	rep.add("setup.server_images_frac", "frac", l.imagesFrac, "netfeed.NewServer / setup")
	rep.add("setup.dial_frac", "frac", l.dialFrac, "Start + both Connects / setup")
	rep.add("setup.preamble_bytes", "B", l.preambleBytes, "NetStats.PreambleBytes per connection")

	rep.add("runtime.gc_cpu_frac", "frac", l.gcFrac, "GC CPU / total CPU over the untraced phase")

	rep.add("ladder.oracle_us_per_query", "us", l.lad.oracle, "core.OracleTNN")
	rep.add("ladder.run_plain_us_per_query", "us", l.lad.plain, "core.Run")
	rep.add("ladder.run_memo_us_per_query", "us", l.lad.memo, "core.Run on MemoFeed")
	rep.add("ladder.do_us_per_query", "us", l.lad.do, "System.Do")
	rep.add("ladder.stream_us_per_query", "us", l.lad.stream, "RunStream, 1 worker")

	rep.add("gen.late_p99_us", "us", l.lateP99us, "harness delay before a query enters the system")
	rep.add("trace.overhead_frac", "frac", l.overheadFrac, "traced / untraced time per query - 1")
	rep.add("trace.attributed_frac", "frac", ratio(float64(t.coreNs), l.topNs), "core.step (self + feed children) / "+l.top)
	rep.note("ladder: %d rounds; oracle %.1f, core.Run %.1f, +memo %.1f, System.Do %.1f, RunStream %.1f us/query",
		l.lad.rounds, l.lad.oracle, l.lad.plain, l.lad.memo, l.lad.do, l.lad.stream)
}
