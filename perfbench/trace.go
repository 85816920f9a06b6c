package main

// Tracing from outside the program. A traced run wraps every
// broadcast.Feed a query reads in a benchmark-owned decorator that times
// each call and charges it to the query that made it, and drives
// core.QueryExec itself (or, inside the session engine, through a
// registered executor that wraps one), so the core layer's time is the
// time in Reset and Step. The spans of one query are:
//
//	query                 the query's wall time, issue to result
//	└─ core.step          Reset plus every Step (count = steps)
//	   ├─ broadcast.arrival   Next*Arrival calls (air-index pointers)
//	   ├─ broadcast.page      PageAt calls (page descriptors)
//	   └─ broadcast.receive   ReadNode and Fault calls: receptions
//	                          (named netfeed.fault on the remote wire)
//
// Feed calls are aggregated per parent span (count and total time), as
// are steps per query, to bound the tracing overhead. Self time is a
// span's time minus its children's. Costs the decorator cannot reach
// land in the self time of the enclosing span: geom kernels, rtree.Flat
// scans and client.Sched/Receiver work in core.step; MemoFeed lookups
// and FaultFeed draws in broadcast.receive/arrival; the server's
// transmitSlot fan-out and the frame codec in netfeed.fault waiting.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/core"
	"tnnbcast/internal/netfeed"
	"tnnbcast/internal/rtree"
)

// callKind classifies feed calls.
type callKind int

const (
	kArrival  callKind = iota // NextNodeArrival, NextRootArrival, NextObjectArrival
	kPage                     // PageAt
	kReadNode                 // ReadNode: an index-page reception
	kFault                    // Fault: a data-page reception
	nKinds
)

// qtrace accumulates one query's spans. It is owned by the goroutine
// running the query until tracer.end merges it.
type qtrace struct {
	id     int64
	algo   core.Algo
	start  time.Time
	wallNs int64
	coreNs int64
	steps  int64
	calls  [nKinds]int64
	ns     [nKinds]int64
	// Reception outcomes.
	faults, lost int64
	// Remote receptions only: slots already aired when the reception
	// began (answered by replay) and their summed lag in slots.
	replays, lagSlots int64
	waits             []int64 // timed receptions' ns
	tick              int64   // calls so far, for sampling
}

func (q *qtrace) feedNs() int64 {
	var s int64
	for _, v := range q.ns {
		s += v
	}
	return s
}

// tracer merges finished queries and keeps the first spans for output.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	remote bool

	mu             sync.Mutex
	queries        int64
	wallNs, coreNs int64
	steps          int64
	algoNs, algoN  [4]int64
	calls, ns      [nKinds]int64
	faults, lost   int64
	replays, lag   int64
	waits          durHist
	kept           []qtrace
	maxKept        int
}

func newTracer(remote bool) *tracer {
	calibrateClock()
	return &tracer{t0: time.Now(), remote: remote, maxKept: 1000}
}

// begin opens a query span.
func (t *tracer) begin(algo core.Algo) *qtrace {
	return &qtrace{id: t.nextID.Add(1), algo: algo, start: time.Now(), waits: make([]int64, 0, 64)}
}

// end closes q's query span and merges it.
func (t *tracer) end(q *qtrace) {
	q.wallNs = time.Since(q.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	t.wallNs += q.wallNs
	t.coreNs += q.coreNs
	t.steps += q.steps
	if q.algo >= 0 && int(q.algo) < len(t.algoNs) {
		t.algoNs[q.algo] += q.wallNs
		t.algoN[q.algo]++
	}
	for k := range q.calls {
		t.calls[k] += q.calls[k]
		t.ns[k] += q.ns[k]
	}
	t.faults += q.faults
	t.lost += q.lost
	t.replays += q.replays
	t.lag += q.lagSlots
	for _, w := range q.waits {
		t.waits.add(w)
	}
	if len(t.kept) < t.maxKept {
		kq := *q
		kq.waits = nil
		t.kept = append(t.kept, kq)
	}
}

// receptions returns the merged reception count.
func (t *tracer) receptions() int64 { return t.calls[kReadNode] + t.calls[kFault] }

// span is one line of the span file.
type span struct {
	Trace   int64  `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	Count   int64  `json:"count"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
	Algo    string `json:"algo,omitempty"`
}

// writeSpans writes the kept queries' spans, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	recv := "broadcast.receive"
	if t.remote {
		recv = "netfeed.fault"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, q := range t.kept {
		feed := q.feedNs()
		rows := []span{
			{Trace: q.id, Span: "query", StartNs: q.start.Sub(t.t0).Nanoseconds(), Count: 1,
				DurNs: q.wallNs, SelfNs: q.wallNs - q.coreNs, Algo: q.algo.String()},
			{Trace: q.id, Span: "core.step", Parent: "query", Count: q.steps, DurNs: q.coreNs, SelfNs: q.coreNs - feed},
			{Trace: q.id, Span: "broadcast.arrival", Parent: "core.step", Count: q.calls[kArrival], DurNs: q.ns[kArrival], SelfNs: q.ns[kArrival]},
			{Trace: q.id, Span: "broadcast.page", Parent: "core.step", Count: q.calls[kPage], DurNs: q.ns[kPage], SelfNs: q.ns[kPage]},
			{Trace: q.id, Span: recv, Parent: "core.step", Count: q.calls[kReadNode] + q.calls[kFault],
				DurNs: q.ns[kReadNode] + q.ns[kFault], SelfNs: q.ns[kReadNode] + q.ns[kFault]},
		}
		for _, r := range rows {
			if err := enc.Encode(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSpans writes the span file and notes where it went.
func saveSpans(c config, rep *report, t *tracer) {
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	if err := t.writeSpans(path); err != nil {
		rep.note("spans not written: %v", err)
		return
	}
	rep.note("spans of the first %d queries: %s", len(t.kept), path)
}

// tracedFeed is the benchmark-owned broadcast.Feed decorator. q is the
// query its calls are charged to; conn, when set, is the remote
// connection whose live slot classifies each reception. Every call is
// counted; one in every is timed and its time scaled by every, which
// keeps the clock reads from doubling the cost of in-process queries.
type tracedFeed struct {
	inner broadcast.Feed
	q     *qtrace
	conn  *netfeed.Conn
	every int64
}

var _ broadcast.Feed = (*tracedFeed)(nil)

// sampleEvery is the in-process timing sample rate (prime, so it does not
// alias with the call patterns of a search step). Remote receptions block
// for milliseconds and are all timed.
const sampleEvery = 7

// clockNs is the cost of one clock read, taken off every timed call.
var clockNs int64

func calibrateClock() {
	ds := make([]float64, 2001)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	clockNs = int64(median(ds))
}

// start counts one call of kind k and reports whether to time it.
func (f *tracedFeed) start(k callKind) (time.Time, bool) {
	f.q.calls[k]++
	f.q.tick++
	if f.every > 1 && f.q.tick%f.every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// stop charges a timed call and returns its duration.
func (f *tracedFeed) stop(k callKind, t0 time.Time) int64 {
	d := max(time.Since(t0).Nanoseconds()-clockNs, 0)
	f.q.ns[k] += d * f.every
	return d
}

// Index implements broadcast.Feed; it reads an immutable field and is not
// charged.
func (f *tracedFeed) Index() broadcast.AirIndex { return f.inner.Index() }

// PageAt implements broadcast.Feed.
func (f *tracedFeed) PageAt(t int64) broadcast.Page {
	t0, timed := f.start(kPage)
	p := f.inner.PageAt(t)
	if timed {
		f.stop(kPage, t0)
	}
	return p
}

// NextNodeArrival implements broadcast.Feed.
func (f *tracedFeed) NextNodeArrival(nodeID int, after int64) int64 {
	t0, timed := f.start(kArrival)
	s := f.inner.NextNodeArrival(nodeID, after)
	if timed {
		f.stop(kArrival, t0)
	}
	return s
}

// NextRootArrival implements broadcast.Feed.
func (f *tracedFeed) NextRootArrival(after int64) int64 {
	t0, timed := f.start(kArrival)
	s := f.inner.NextRootArrival(after)
	if timed {
		f.stop(kArrival, t0)
	}
	return s
}

// NextObjectArrival implements broadcast.Feed.
func (f *tracedFeed) NextObjectArrival(objectID int, after int64) int64 {
	t0, timed := f.start(kArrival)
	s := f.inner.NextObjectArrival(objectID, after)
	if timed {
		f.stop(kArrival, t0)
	}
	return s
}

// ReadNode implements broadcast.Feed: one reception.
func (f *tracedFeed) ReadNode(t int64) (*rtree.Node, *broadcast.PageFault) {
	f.sampleLive(t)
	t0, timed := f.start(kReadNode)
	n, pf := f.inner.ReadNode(t)
	f.received(kReadNode, t0, timed, pf)
	return n, pf
}

// Fault implements broadcast.Feed: one reception.
func (f *tracedFeed) Fault(t int64) *broadcast.PageFault {
	f.sampleLive(t)
	t0, timed := f.start(kFault)
	pf := f.inner.Fault(t)
	f.received(kFault, t0, timed, pf)
	return pf
}

// sampleLive classifies a remote reception before it starts: a slot at or
// before the live slot has already aired, so the server answers its WAKE
// by replay.
func (f *tracedFeed) sampleLive(t int64) {
	if f.conn == nil {
		return
	}
	if live := f.conn.LiveSlot(); t <= live {
		f.q.replays++
		f.q.lagSlots += live - t
	}
}

func (f *tracedFeed) received(k callKind, t0 time.Time, timed bool, pf *broadcast.PageFault) {
	if timed {
		f.q.waits = append(f.q.waits, f.stop(k, t0))
	}
	if pf != nil {
		f.q.faults++
		if pf.Kind == broadcast.FaultLost {
			f.q.lost++
		}
	}
}

// newTracedFeed decorates inner for q: remote feeds time every call,
// in-process feeds one in sampleEvery.
func newTracedFeed(inner broadcast.Feed, q *qtrace, conn *netfeed.Conn) *tracedFeed {
	f := &tracedFeed{inner: inner, q: q, conn: conn, every: sampleEvery}
	if conn != nil {
		f.every = 1
	}
	return f
}

// tracedEnv wraps env's two feeds in decorators charging q.
func tracedEnv(env core.Env, q *qtrace, conn *netfeed.Conn) core.Env {
	env.ChS = newTracedFeed(env.ChS, q, conn)
	env.ChR = newTracedFeed(env.ChR, q, conn)
	return env
}

// runStepped runs one query to completion on env, timing Reset and every
// Step as the core.step span of q.
func runStepped(q *qtrace, ex *core.QueryExec, env core.Env, q0 query, sc *core.Scratch) core.Result {
	opt := core.Options{Issue: q0.issue, Scratch: sc}
	t0 := time.Now()
	ex.Reset(env, q0.algo, q0.p, opt)
	for !ex.Done() {
		ex.Step()
		q.steps++
	}
	q.coreNs += time.Since(t0).Nanoseconds()
	return ex.Result()
}

// runPlain is runStepped without the timing: the untraced reference path.
func runPlain(ex *core.QueryExec, env core.Env, q0 query, sc *core.Scratch) core.Result {
	ex.Reset(env, q0.algo, q0.p, core.Options{Issue: q0.issue, Scratch: sc})
	for !ex.Done() {
		ex.Step()
	}
	return ex.Result()
}

// countingFeed counts the calls that reach a feed, without timing them;
// it sits below the session engine's MemoFeed to measure what the memo
// lets through. Safe for concurrent use.
type countingFeed struct {
	inner broadcast.Feed
	calls *[nKinds]atomic.Int64
}

var _ broadcast.Feed = countingFeed{}

func (f countingFeed) Index() broadcast.AirIndex { return f.inner.Index() }

func (f countingFeed) PageAt(t int64) broadcast.Page {
	f.calls[kPage].Add(1)
	return f.inner.PageAt(t)
}

func (f countingFeed) NextNodeArrival(nodeID int, after int64) int64 {
	f.calls[kArrival].Add(1)
	return f.inner.NextNodeArrival(nodeID, after)
}

func (f countingFeed) NextRootArrival(after int64) int64 {
	f.calls[kArrival].Add(1)
	return f.inner.NextRootArrival(after)
}

func (f countingFeed) NextObjectArrival(objectID int, after int64) int64 {
	f.calls[kArrival].Add(1)
	return f.inner.NextObjectArrival(objectID, after)
}

func (f countingFeed) ReadNode(t int64) (*rtree.Node, *broadcast.PageFault) {
	f.calls[kReadNode].Add(1)
	return f.inner.ReadNode(t)
}

func (f countingFeed) Fault(t int64) *broadcast.PageFault {
	f.calls[kFault].Add(1)
	return f.inner.Fault(t)
}

// countingEnv wraps env's feeds in one shared set of counters.
func countingEnv(env core.Env, calls *[nKinds]atomic.Int64) core.Env {
	env.ChS = countingFeed{inner: env.ChS, calls: calls}
	env.ChR = countingFeed{inner: env.ChR, calls: calls}
	return env
}

// memoizable returns the calls a MemoFeed can answer from its cache:
// arrival queries and page lookups (a ReadNode above the memo is one
// page lookup plus an uncached Fault below it).
func memoizable(c *[nKinds]atomic.Int64) int64 {
	return c[kArrival].Load() + c[kPage].Load() + c[kReadNode].Load()
}
