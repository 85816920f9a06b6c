// Command tnnbench regenerates the paper's evaluation: every figure and
// table of Section 6 has an experiment ID (fig9a … fig13b, tab3, grid).
//
// Usage:
//
//	tnnbench -exp fig9a                # one experiment, paper defaults
//	tnnbench -exp all -queries 200     # everything, reduced query count
//	tnnbench -exp tab3 -csv            # CSV output
//	tnnbench -clients 100,1000,4000    # multi-client session scaling ladder
//	tnnbench -exp fig9a -index distributed   # swap the air-index family
//	tnnbench -exp fig9a -sched skewed        # broadcast-disks data schedule
//	tnnbench -exp ablation-loss              # loss-rate ladder, both index families
//	tnnbench -exp fig9a -loss 0.01 -burst 8  # lossy channels for any experiment
//	tnnbench -list                     # list experiment IDs
//
// -loss/-burst/-corrupt/-faultseed subject every channel to the seeded
// fault model (page loss, bursty loss, checksum-detected corruption).
// Queries recover transparently — answers are identical to the lossless
// run; only access time and tune-in grow.
//
// -index/-cut and -sched/-disks/-ratio select the air-index family and the
// data schedule for EVERY experiment run; the ablation-index, ablation-cut,
// and ablation-sched experiments compare the families directly. -algos
// restricts (or extends) the algorithm set of the exact-search
// experiments through the algorithm registry — strategies registered via
// tnnbcast.RegisterAlgorithm are selectable by name alongside the
// built-ins.
//
// The paper averages 1,000 random query points per configuration; -queries
// trades accuracy for speed. All randomness is seeded, so runs are
// reproducible.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID (fig9a…fig13b, tab3, grid) or \"all\"")
		queries   = flag.Int("queries", 1000, "random query points per configuration")
		seed      = flag.Int64("seed", 0, "random seed (0 = default)")
		pageCap   = flag.Int("page", 64, "page capacity in bytes (64, 128, 256, 512)")
		algos     = flag.String("algos", "", "comma-separated algorithm override for the exact-search experiments (canonical names or window/double/hybrid/approx; default: all four)")
		index     = flag.String("index", "preorder", "air-index family: preorder (the paper's (1,m) scheme) or distributed (replicated upper levels)")
		cut       = flag.Int("cut", 0, "distributed index: number of replicated upper levels (0 = half the tree height)")
		sched     = flag.String("sched", "flat", "data schedule: flat (every object once per cycle) or skewed (broadcast-disks)")
		disks     = flag.Int("disks", 2, "skewed schedule: number of frequency classes")
		ratio     = flag.Int("ratio", 2, "skewed schedule: integer frequency ratio between adjacent classes")
		workers   = flag.Int("workers", 0, "parallel query workers per experiment (0 = GOMAXPROCS, 1 = sequential; results are identical for any value)")
		loss      = flag.Float64("loss", 0, "page loss probability on every channel, in [0, 1) (0 = perfect channels)")
		burst     = flag.Float64("burst", 0, "mean loss-burst length in pages (<= 1 = independent loss, > 1 = Gilbert-Elliott bursts at the same stationary rate)")
		corrupt   = flag.Float64("corrupt", 0, "independent per-page corruption probability, in [0, 1) (corrupted pages cost tune-in before being discarded)")
		faultseed = flag.Uint64("faultseed", 0, "fault-pattern seed (0 = fixed default; faults are a pure function of seed and slot)")
		clients   = flag.String("clients", "", "run the multi-client session experiment with this comma-separated concurrent-client ladder (e.g. 100,1000,4000,1000000)")
		window    = flag.Float64("window", 0, "multi-client arrival window in broadcast cycles (0 = all issue slots inside one cycle, every client concurrently live on the timeline)")
		verify    = flag.Bool("verify", false, "re-run the multi-client batch with workers=1 and fail unless every per-client result is bit-identical (worker-count invariance at scale)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file (inspect with go tool pprof)")
		memprof   = flag.String("memprofile", "", "write an allocation profile, taken after the experiment runs, to this file")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		ids := make([]string, 0, len(experiments.Registry))
		for id := range experiments.Registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}
	scheme, err := broadcast.ParseScheme(*index)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnnbench:", err)
		os.Exit(2)
	}
	params := broadcast.DefaultParams()
	params.PageCap = *pageCap
	cfg := experiments.Config{Queries: *queries, Seed: *seed, Workers: *workers,
		Window: *window, VerifyWorkers: *verify,
		Air: broadcast.AirSpec{Params: params, Scheme: scheme, Cut: *cut,
			Faults: broadcast.FaultModel{Loss: *loss, Burst: *burst, Corrupt: *corrupt, Seed: *faultseed}}}
	if *queries < 0 {
		fmt.Fprintf(os.Stderr, "tnnbench: -queries must be >= 0, got %d\n", *queries)
		os.Exit(2)
	}
	if *window < 0 {
		fmt.Fprintf(os.Stderr, "tnnbench: -window must be >= 0, got %g\n", *window)
		os.Exit(2)
	}
	switch *sched {
	case "flat":
	case "skewed":
		cfg.Air.SkewDisks, cfg.Air.SkewRatio = *disks, *ratio
	default:
		fmt.Fprintf(os.Stderr, "tnnbench: unknown -sched %q (flat or skewed)\n", *sched)
		os.Exit(2)
	}
	// The experiments generate their own datasets: check the air alone.
	if rej := broadcast.Check(nil, &cfg.Air, nil, *sched == "skewed"); rej != nil {
		fmt.Fprintln(os.Stderr, "tnnbench:", rej)
		os.Exit(2)
	}
	if *algos != "" {
		for _, name := range strings.Split(*algos, ",") {
			cfg.Algos = append(cfg.Algos, strings.TrimSpace(name))
		}
		// Validate up front for a friendly error instead of a mid-run panic.
		if _, err := experiments.AlgosByName(cfg.Algos); err != nil {
			fmt.Fprintln(os.Stderr, "tnnbench:", err)
			os.Exit(2)
		}
	}

	// -clients is shorthand for the "clients" experiment with an explicit
	// concurrent-client ladder.
	if *clients != "" {
		for _, f := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "tnnbench: bad -clients value %q\n", f)
				os.Exit(2)
			}
			cfg.Clients = append(cfg.Clients, n)
		}
		if *exp == "" {
			*exp = "clients"
		}
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "tnnbench: -exp is required (use -list to see IDs)")
		flag.Usage()
		os.Exit(2)
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.Order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "tnnbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnnbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tnnbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tnnbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle to reachable memory before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tnnbench:", err)
			}
		}()
	}

	for _, id := range ids {
		start := time.Now()
		beforeN := experiments.QueriesExecuted.Load()
		beforeT := experiments.QueryNanos.Load()
		table := experiments.Registry[id](cfg)
		elapsed := time.Since(start)
		nq := experiments.QueriesExecuted.Load() - beforeN
		qt := time.Duration(experiments.QueryNanos.Load() - beforeT)
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", table.ID, table.Title, table.CSV())
		} else {
			perQuery := "n/a"
			if nq > 0 {
				// Mean algorithm execution time: oracle verification,
				// dataset generation, R-tree packing, and program builds
				// are all excluded.
				perQuery = (qt / time.Duration(nq)).Round(time.Microsecond).String()
			}
			fmt.Printf("%s(elapsed %s, %d queries, avg %s/query)\n\n",
				table.Format(), elapsed.Round(time.Millisecond), nq, perQuery)
		}
	}
}
