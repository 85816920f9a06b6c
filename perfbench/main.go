// Command perfbench is the repository's benchmark: one command that runs
// the paper-query, session-lossy and remote-wire workloads, checks every
// answer it can check, and prints the end-to-end metrics (untraced runs)
// or the per-layer metrics (traced runs) by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-query --seed 1 --seconds 20 --trace 0
//
// A failed correctness check prints the JSON with "correct": false and
// exits with status 1. README.md in this directory records the method:
// why each workload exists, which layer each per-layer metric measures,
// and which end-to-end metric it is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer list the metric names a run reports, in print
// order. They mirror BENCHMARK.json; a run whose workload forgets one (or
// adds an unlisted one) fails.
var endToEnd = []string{
	"setup_s", "queries_per_s", "latency_p50_us", "latency_p90_us",
	"cpu_us_per_query", "alloc_bytes_per_query", "heap_peak_mb",
	"access_pages_mean", "tunein_pages_mean",
}

var perLayer = []string{
	"core.steps_per_query", "core.self_ns_per_step", "core.self_share",
	"core.us_per_query.window", "core.us_per_query.double",
	"core.us_per_query.hybrid", "core.us_per_query.approx",
	"core.approx_miss_frac",
	"broadcast.arrival_calls_per_query", "broadcast.arrival_ns_per_call",
	"broadcast.read_calls_per_query", "broadcast.read_ns_per_call",
	"broadcast.memo_hit_frac", "broadcast.fault_frac",
	"client.lost_per_query", "client.retries_per_query", "client.recovery_slots_per_query",
	"session.steps_per_query", "session.peak_live", "session.overhead_us_per_query",
	"tnnbcast.do_overhead_ns",
	"netfeed.receptions_per_query", "netfeed.wait_us_mean", "netfeed.wait_us_p90",
	"netfeed.replay_frac", "netfeed.lag_slots_mean", "netfeed.lost_frac",
	"netfeed.shared_frac", "netfeed.heartbeat_rtt_slots", "netfeed.wire_bytes_per_query",
	"setup.rtree_build_ms", "setup.index_build_ms", "setup.server_images_frac",
	"setup.dial_frac", "setup.preamble_bytes",
	"runtime.gc_cpu_frac",
	"ladder.oracle_us_per_query", "ladder.run_plain_us_per_query",
	"ladder.run_memo_us_per_query", "ladder.do_us_per_query", "ladder.stream_us_per_query",
	"gen.late_p99_us", "trace.overhead_frac", "trace.attributed_frac",
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// budget returns the measuring time of a phase that gets share of the
// run's seconds.
func (c config) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// report collects a run's metrics, attempt counts and correctness
// problems.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// fail records a correctness problem; any problem fails the run.
func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config, *report){
	"paper-query":   runPaperQuery,
	"session-lossy": runSessionLossy,
	"remote-wire":   runRemoteWire,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "paper-query, session-lossy or remote-wire")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 10, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v | %s %s/%s, %d CPUs, GOMAXPROCS=%d\n",
		c.workload, c.seed, c.seconds, c.trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var rep report
	run(c, &rep)
	os.Exit(finish(c, &rep))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return strings.Join(names, "|")
}

// finish prints the human-readable lines and the JSON result line and
// returns the exit status.
func finish(c config, rep *report) int {
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	got := make(map[string]metric, len(rep.metrics))
	for _, m := range rep.metrics {
		if _, dup := got[m.Name]; dup {
			rep.fail("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail("metric %s is not finite", m.Name)
			m.Value = 0
		}
		got[m.Name] = m
	}
	out := make(map[string]map[string]any, len(want))
	for _, name := range want {
		m, ok := got[name]
		if !ok {
			rep.fail("metric %s not reported", name)
			continue
		}
		fmt.Printf("%-36s %16.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		delete(got, name)
	}
	for name := range got {
		rep.fail("metric %s is not in the metric list", name)
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	if rep.attempted < 1 {
		rep.fail("no query attempted")
	}
	for _, p := range rep.problems {
		fmt.Println("# CHECK FAILED: " + p)
	}
	correct := len(rep.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// --- measurement helpers -------------------------------------------------

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rtSnap is a snapshot of the runtime counters a run reports deltas of.
type rtSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// meter brackets a measured phase: wall time, process CPU, allocated
// bytes, the garbage collector's CPU share, and the peak in-use heap
// sampled every heapSampleEvery.
type meter struct {
	start time.Time
	cpu   float64
	rt    rtSnap
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
}

// heapSampleEvery paces the heap sampler: often enough to catch the peak
// before a collection (collections are seconds apart in every workload),
// seldom enough that its wake-ups do not show in the CPU figures of the
// mostly idle remote-wire process.
const heapSampleEvery = 25 * time.Millisecond

// startMeter collects garbage first, so every run starts its measured
// phase from the same heap state.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	m.cpu, m.rt, m.start = cpuSeconds(), readRuntime(), time.Now()
	return m
}

// measured is what a meter saw.
type measured struct {
	wall      time.Duration
	cpu       float64
	alloc     uint64
	gcFrac    float64
	heapPeakB uint64
}

func (m *meter) end() measured {
	wall := time.Since(m.start)
	cpu, rt := cpuSeconds(), readRuntime()
	close(m.stop)
	<-m.done
	return measured{
		wall:      wall,
		cpu:       cpu - m.cpu,
		alloc:     rt.allocBytes - m.rt.allocBytes,
		gcFrac:    ratio(rt.gcCPU-m.rt.gcCPU, rt.totalCPU-m.rt.totalCPU),
		heapPeakB: m.peak,
	}
}

// addCommon reports the end-to-end metrics every workload derives the
// same way from a measured phase over n completed queries.
func addCommon(rep *report, ms measured, n int) {
	q := float64(n)
	rep.add("queries_per_s", "1/s", q/ms.wall.Seconds(), fmt.Sprintf("%d queries in %.2fs", n, ms.wall.Seconds()))
	rep.add("cpu_us_per_query", "us", ms.cpu*1e6/q, "getrusage user+system")
	rep.add("alloc_bytes_per_query", "B", float64(ms.alloc)/q, "runtime /gc/heap/allocs:bytes")
	rep.add("heap_peak_mb", "MB", float64(ms.heapPeakB)/(1<<20), "peak /memory/classes/heap/objects:bytes, 25ms samples")
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// durHist is a log-linear histogram of durations in ns: 16 sub-buckets
// per power of two, so a quantile is within 1/16 of the exact one. Every
// latency and delay distribution goes through one; its fixed size keeps
// the harness's memory out of the allocation and heap figures however
// many queries a run completes.
type durHist struct {
	n     [64 * 16]int64
	total int64
	sum   int64
}

func (h *durHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	e := bits.Len64(uint64(ns)) - 1
	var m uint64
	if e >= 4 {
		m = uint64(ns)>>(e-4) - 16
	} else {
		m = uint64(ns)<<(4-e) - 16
	}
	h.n[e*16+int(m)]++
	h.total++
	h.sum += ns
}

// quantile returns the q-quantile in ns, interpolating linearly inside
// the bucket that holds it.
func (h *durHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	var cum int64
	for i, c := range h.n {
		if c > 0 && float64(cum+c) >= target {
			e, m := i/16, i%16
			lo := float64(uint64(16+m)<<e) / 16
			width := float64(uint64(1)<<e) / 16
			return lo + width*(target-float64(cum))/float64(c)
		}
		cum += c
	}
	return 0
}

// mean returns the mean in ns.
func (h *durHist) mean() float64 { return ratio(float64(h.sum), float64(h.total)) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs build reps times and returns the median seconds and the
// last build's result.
func timeSetup[T any](reps int, build func() T) (float64, T) {
	var last T
	secs := make([]float64, reps)
	for i := range secs {
		t0 := time.Now()
		last = build()
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs), last
}

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"
