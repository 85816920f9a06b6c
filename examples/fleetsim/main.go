// Command fleetsim demonstrates the shared-cycle multi-client batch API:
// a fleet of mobile clients — couriers spread over a city, each wanting
// the best "post office then restaurant" two-leg trip from wherever it is
// right now — all tuned into the SAME two broadcast channels. One
// QueryBatch call runs every courier's search concurrently against the
// shared cycles; the per-courier results are bit-identical to issuing the
// queries one at a time, but the whole fleet is served within one
// access-time span of air time instead of a per-courier sum.
//
// Run with:
//
//	go run ./examples/fleetsim [-fleet 600]
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"tnnbcast"
)

func main() {
	fleet := flag.Int("fleet", 600, "number of concurrent clients")
	flag.Parse()
	if *fleet < 1 {
		fmt.Println("fleetsim: -fleet must be at least 1")
		return
	}

	region := tnnbcast.PaperRegion
	postOffices := tnnbcast.UniformDataset(1, 4000, region)
	restaurants := tnnbcast.ClusteredDataset(2, 6000, 8, region)

	sys, err := tnnbcast.New(postOffices, restaurants,
		tnnbcast.WithRegion(region), tnnbcast.WithPhases(1234, 56789))
	if err != nil {
		panic(err)
	}
	stS, stR := sys.ChannelStats()
	fmt.Printf("on air: S=%d post offices (%d-slot cycle), R=%d restaurants (%d-slot cycle)\n\n",
		stS.Points, stS.CycleLen, stR.Points, stR.CycleLen)

	// The fleet: random locations, issue slots spread across one S cycle
	// (couriers come online all the time, not in lockstep), and a mix of
	// the paper's algorithms — the dispatcher default is Hybrid, older
	// handsets run Double, energy-pinched ones Approximate.
	rng := rand.New(rand.NewSource(7))
	algos := []tnnbcast.Algorithm{tnnbcast.Hybrid, tnnbcast.Hybrid,
		tnnbcast.Double, tnnbcast.Approximate}
	queries := make([]tnnbcast.Request, *fleet)
	issues := make([]int64, *fleet)
	for i := range queries {
		issues[i] = rng.Int63n(stS.CycleLen)
		queries[i] = tnnbcast.Request{
			Point: tnnbcast.Pt(
				region.Lo.X+rng.Float64()*(region.Hi.X-region.Lo.X),
				region.Lo.Y+rng.Float64()*(region.Hi.Y-region.Lo.Y),
			),
			Algo:    algos[i%len(algos)],
			Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(issues[i])},
		}
	}

	// One batch, the whole fleet.
	responses, err := sys.QueryBatch(queries)
	if err != nil {
		panic(err)
	}

	// Aggregate what the fleet experienced.
	var sumAccess, sumTuneIn, maxEnd, minIssue int64
	minIssue = issues[0]
	found := 0
	for i, resp := range responses {
		r := resp.Result
		if r.Found {
			found++
		}
		sumAccess += r.AccessTime
		sumTuneIn += r.TuneIn
		if end := issues[i] + r.AccessTime; end > maxEnd {
			maxEnd = end
		}
		if issues[i] < minIssue {
			minIssue = issues[i]
		}
	}
	span := maxEnd - minIssue
	n := int64(len(responses))
	fmt.Printf("fleet of %d clients, %d answered\n", n, found)
	fmt.Printf("mean access time: %d pages, mean tune-in: %.1f pages\n",
		sumAccess/n, float64(sumTuneIn)/float64(n))
	fmt.Printf("air time, fleet overlapped on shared cycles: %8d slots\n", span)
	fmt.Printf("air time, same queries back-to-back:         %8d slots (%.0f× more)\n",
		sumAccess, float64(sumAccess)/float64(span))

	// Spot-check the determinism guarantee: a batch result IS the
	// sequential result.
	i := len(queries) / 2
	solo := sys.Query(queries[i].Point, queries[i].Algo, queries[i].Options...)
	fmt.Printf("\nclient %d, batch == sequential: %v (trip %.1f, S#%d → R#%d)\n",
		i, solo == responses[i].Result, solo.Dist, solo.SID, solo.RID)
}
