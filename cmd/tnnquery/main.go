// Command tnnquery executes a single TNN query over a freshly built
// two-channel broadcast and reports the answer, the metrics, and — with
// -trace — the page-by-page download schedule on both channels. The trace
// makes the linear-medium behaviour of Figure 10 concrete: one can watch
// the client doze between scheduled arrivals and see which index pages each
// algorithm pays for.
//
// tnnquery runs entirely on the public Query API v2: queries go through
// the unified request pipeline and the trace is the Cursor's typed event
// stream (PhaseStart / RadiusSet / PageDownloaded), not an internal hook.
// Any algorithm registered with tnnbcast.RegisterAlgorithm is selectable
// by name next to the built-ins.
//
// With -connect, tnnquery skips the local broadcast build and runs the
// same queries against a live tnnserve service instead: the datasets and
// schedule come from the service's preamble, receptions ride real packets,
// and the report gains the raw reception counters (bytes read off the
// wire — the tune-in measurement taken on the socket).
//
// Usage:
//
//	tnnquery -algo double -s 10000 -r 10000 -x 19500 -y 19500
//	tnnquery -algo hybrid -s 2000 -r 30000 -trace
//	tnnquery -algo all -s 5000 -r 5000
//	tnnquery -algo all -connect 127.0.0.1:7311
package main

import (
	"flag"
	"fmt"
	"os"

	"tnnbcast"
)

// querier is the query surface shared by the local System and a connected
// RemoteSystem (whose entry points default the issue slot to the live one).
type querier interface {
	Do(req tnnbcast.Request) (tnnbcast.Response, error)
	Start(req tnnbcast.Request) (*tnnbcast.Cursor, error)
	Exact(p tnnbcast.Point) (tnnbcast.Result, bool)
	ChannelStats() (s, r tnnbcast.Stats)
}

func main() {
	var (
		algo     = flag.String("algo", "double", "window | double | hybrid | approx | all, or a registered algorithm name")
		sizeS    = flag.Int("s", 10000, "size of dataset S")
		sizeR    = flag.Int("r", 10000, "size of dataset R")
		x        = flag.Float64("x", 19500, "query point x")
		y        = flag.Float64("y", 19500, "query point y")
		seed     = flag.Int64("seed", 1, "random seed (datasets and channel phases)")
		pageCap  = flag.Int("page", 64, "page capacity in bytes")
		dataSize = flag.Int("data", 1024, "data object size in bytes")
		ann      = flag.Float64("ann", 0, "ANN adjustment factor (0 = exact search)")
		trace    = flag.Bool("trace", false, "print the page-by-page download schedule")
		connect  = flag.String("connect", "", "query a live tnnserve service at this address instead of simulating")
		timeout  = flag.Duration("timeout", 0, "with -connect: bound on dial + handshake (0 = default 10s)")
	)
	flag.Parse()

	var sys querier
	var remote *tnnbcast.RemoteSystem
	if *connect != "" {
		var copts []tnnbcast.ConnectOption
		if *timeout > 0 {
			copts = append(copts, tnnbcast.WithConnectTimeout(*timeout))
		}
		rs, err := tnnbcast.Connect(*connect, copts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnnquery:", err)
			os.Exit(1)
		}
		defer rs.Close()
		fmt.Printf("connected to %s (live slot %d)\n", *connect, rs.LiveSlot())
		sys, remote = rs, rs
	} else {
		if *sizeS < 0 || *sizeR < 0 {
			fmt.Fprintf(os.Stderr, "tnnquery: dataset sizes must be >= 0, got -s %d -r %d\n", *sizeS, *sizeR)
			os.Exit(2)
		}
		region := tnnbcast.PaperRegion
		ptsS := tnnbcast.UniformDataset(*seed+1, *sizeS, region)
		ptsR := tnnbcast.UniformDataset(*seed+2, *sizeR, region)
		// WithPhases normalizes cyclically, so passing the raw products keeps
		// the pre-v2 offsets (seed*7919 mod cycleS, seed*104729 mod cycleR).
		local, err := tnnbcast.New(ptsS, ptsR,
			tnnbcast.WithRegion(region),
			tnnbcast.WithPageCap(*pageCap),
			tnnbcast.WithDataSize(*dataSize),
			tnnbcast.WithPhases(*seed*7919, *seed*104729))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnnquery:", err)
			os.Exit(2)
		}
		sys = local
	}

	statS, statR := sys.ChannelStats()
	for _, c := range []struct {
		name string
		st   tnnbcast.Stats
	}{{"S", statS}, {"R", statR}} {
		fmt.Printf("channel %s: %d points, %d index pages, %d data pages, (1,%d) interleave, cycle %d slots\n",
			c.name, c.st.Points, c.st.IndexPages, c.st.DataPages, c.st.Interleave, c.st.CycleLen)
	}

	p := tnnbcast.Pt(*x, *y)
	oracle, oracleOK := sys.Exact(p)
	if oracleOK {
		fmt.Printf("exact TNN (oracle): s=%v r=%v dist=%.2f\n\n", oracle.S, oracle.R, oracle.Dist)
	}

	var names []string
	if *algo == "all" {
		names = []string{"window", "double", "hybrid", "approx"}
	} else {
		names = []string{*algo}
	}
	for _, name := range names {
		a, ok := tnnbcast.AlgorithmByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "tnnquery: unknown algorithm %q (registered: %v)\n",
				name, tnnbcast.Algorithms())
			os.Exit(2)
		}
		req := tnnbcast.Request{Point: p, Algo: a, Options: []tnnbcast.QueryOption{tnnbcast.WithANN(*ann)}}
		var resp tnnbcast.Response
		if *trace {
			fmt.Printf("%s download schedule:\n", name)
			cur, err := sys.Start(req)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tnnquery:", err)
				os.Exit(2)
			}
			for ev := range cur.Events() {
				switch e := ev.(type) {
				case tnnbcast.PhaseStart:
					fmt.Printf("  --- %s phase (slot %d)\n", e.Phase, e.Slot)
				case tnnbcast.RadiusSet:
					fmt.Printf("  --- search radius %.2f (slot %d)\n", e.Radius, e.Slot)
				case tnnbcast.PageDownloaded:
					if e.Kind == tnnbcast.PageIndex {
						fmt.Printf("  [%s] slot %8d  index node %d\n", e.Channel, e.Slot, e.NodeID)
					} else {
						fmt.Printf("  [%s] slot %8d  data object %d (fragment %d)\n",
							e.Channel, e.Slot, e.ObjectID, e.Seq)
					}
				}
			}
			resp = cur.Response()
		} else {
			var err error
			if resp, err = sys.Do(req); err != nil {
				fmt.Fprintln(os.Stderr, "tnnquery:", err)
				os.Exit(2)
			}
		}
		res := resp.Result
		if !res.Found {
			fmt.Printf("%-8s NO ANSWER (search range missed the pair)\n", name)
			continue
		}
		status := "exact"
		if oracleOK && res.Dist > oracle.Dist*(1+1e-9) {
			status = fmt.Sprintf("SUBOPTIMAL (+%.1f%%)", 100*(res.Dist/oracle.Dist-1))
		}
		fmt.Printf("%-8s s=%v r=%v dist=%.2f [%s]\n", name, res.S, res.R, res.Dist, status)
		fmt.Printf("         access %d pages, tune-in %d pages (estimate %d + filter %d), radius %.2f",
			res.AccessTime, res.TuneIn, res.EstimateTuneIn, res.FilterTuneIn, res.Radius)
		if res.Case != tnnbcast.HybridCaseNone {
			fmt.Printf(", hybrid case %d", int(res.Case)+1)
		}
		if res.Lost > 0 {
			fmt.Printf(", %d lost / %d retried / %d recovery slots", res.Lost, res.Retries, res.RecoverySlots)
		}
		fmt.Println()
	}

	if remote != nil {
		if err := remote.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "tnnquery: connection degraded:", err)
			os.Exit(1)
		}
		st := remote.NetStats()
		fmt.Printf("wire: %d frames / %d bytes read (+%d preamble bytes), %dB per frame\n",
			st.FramesRead, st.BytesRead, st.PreambleBytes, st.FrameSize)
		if st.Reconnects > 0 {
			fmt.Printf("wire: survived %d reconnects (%d warm resumes, +%d resume bytes)\n",
				st.Reconnects, st.ResumedWarm, st.ResumeBytes)
		}
	}
}
