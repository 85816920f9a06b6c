// Errand planner: the paper's motivating scenario. Mr. Smith is new to a
// city; he wants to mail postcards at a post office and then have dinner
// at a restaurant, minimizing the total travel distance. The city
// broadcasts post offices on one wireless channel and restaurants on
// another; his phone listens to both channels at once and answers the
// transitive nearest-neighbor query without ever contacting a server (or
// revealing his location).
//
//	go run ./examples/errandplanner
package main

import (
	"fmt"
	"log"

	"tnnbcast"
)

func main() {
	// A realistic downtown: post offices are few and spread out,
	// restaurants cluster in nightlife districts.
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(20000, 20000))
	postOffices := tnnbcast.UniformDataset(11, 60, region)
	restaurants := tnnbcast.ClusteredDataset(12, 2500, 6, region)

	sys, err := tnnbcast.New(postOffices, restaurants, tnnbcast.WithRegion(region))
	if err != nil {
		log.Fatal(err)
	}

	hotel := tnnbcast.Pt(7800, 12400)
	fmt.Printf("Mr. Smith's hotel: (%.0f, %.0f)\n\n", hotel.X, hotel.Y)

	// Compare what each algorithm pays for the same (exact) answer.
	fmt.Printf("%-16s %-28s %10s %9s\n", "algorithm", "route", "access", "tune-in")
	for _, algo := range []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
	} {
		res := sys.Query(hotel, algo)
		if !res.Found {
			fmt.Printf("%-16s no answer\n", algo)
			continue
		}
		route := fmt.Sprintf("PO #%d → restaurant #%d, %.0f m", res.SID, res.RID, res.Dist)
		fmt.Printf("%-16s %-28s %10d %9d\n", algo, route, res.AccessTime, res.TuneIn)
	}

	// Energy saving: Double-NN with the approximate-NN optimization. The
	// answer is still exact (the search range always covers the true
	// pair); only the estimate phase is approximated.
	base := sys.Query(hotel, tnnbcast.Double)
	green := sys.Query(hotel, tnnbcast.Double, tnnbcast.WithANN(tnnbcast.FactorWindowDouble))
	fmt.Printf("\nDouble-NN with ANN optimization: tune-in %d → %d pages (answer unchanged: %v)\n",
		base.TuneIn, green.TuneIn, base.Dist == green.Dist)

	best, _ := sys.Exact(hotel)
	fmt.Printf("\nexact answer (oracle): post office at (%.0f,%.0f), restaurant at (%.0f,%.0f), %.0f m\n",
		best.S.X, best.S.Y, best.R.X, best.R.Y, best.Dist)

	// Alternatives: the three best routes, in case the nearest restaurant
	// is full.
	resp, err := sys.Do(tnnbcast.Request{Point: hotel, Variant: tnnbcast.TopK, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	if top := resp.TopK; top.Found {
		fmt.Printf("\ntop-3 routes (%d pages tuned in for all three):\n", top.Metrics.TuneIn)
		for i, r := range top.Pairs {
			fmt.Printf("  %d. PO #%d → restaurant #%d  %.0f m\n", i+1, r.SID, r.RID, r.Dist)
		}
	}
}
