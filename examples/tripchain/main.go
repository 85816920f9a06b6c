// Trip chain: the generalized TNN query from the paper's future-work list
// (Section 7) — more than two datasets, each on its own broadcast channel,
// visited in a fixed order. A tourist wants to withdraw cash at an ATM,
// buy medicine at a pharmacy, and then pick up groceries, walking as
// little as possible; her phone listens to three broadcast channels at
// once. The order-free and round-trip variants are shown on a two-stop
// errand.
//
//	go run ./examples/tripchain
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"tnnbcast"
)

func main() {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(15000, 15000))
	atms := tnnbcast.UniformDataset(31, 120, region)
	pharmacies := tnnbcast.UniformDataset(32, 300, region)
	groceries := tnnbcast.ClusteredDataset(33, 900, 5, region)

	chain, err := tnnbcast.NewChain(
		[][]tnnbcast.Point{atms, pharmacies, groceries},
		tnnbcast.WithRegion(region),
	)
	if err != nil {
		log.Fatal(err)
	}

	start := tnnbcast.Pt(6100, 8800)
	fmt.Printf("start: (%.0f, %.0f); route: ATM → pharmacy → grocery\n\n", start.X, start.Y)

	res := chain.Query(start)
	if !res.Found {
		log.Fatal("no route found")
	}
	names := []string{"ATM", "pharmacy", "grocery"}
	prev := start
	for i, stop := range res.Stops {
		fmt.Printf("  %d. %-9s #%-3d at (%5.0f, %5.0f)  +%.0f m\n",
			i+1, names[i], res.StopIDs[i], stop.X, stop.Y, dist(prev, stop))
		prev = stop
	}
	fmt.Printf("total walk: %.0f m\n", res.Dist)
	fmt.Printf("broadcast cost: access %d pages, tune-in %d pages\n\n",
		res.AccessTime, res.TuneIn)

	exact, ok := chain.Exact(start)
	matches := ok && res.Dist == exact.Dist && slices.Equal(res.StopIDs, exact.StopIDs)
	fmt.Printf("matches full-random-access oracle: %v\n\n", matches)
	if !matches {
		log.Fatalf("route %v (%.6f m) differs from the oracle's %v (%.6f m)",
			res.StopIDs, res.Dist, exact.StopIDs, exact.Dist)
	}

	// Two-stop variants on post offices and cafés.
	posts := tnnbcast.UniformDataset(34, 80, region)
	cafes := tnnbcast.ClusteredDataset(35, 600, 6, region)
	sys, err := tnnbcast.New(posts, cafes, tnnbcast.WithRegion(region))
	if err != nil {
		log.Fatal(err)
	}

	ordered := sys.Query(start, tnnbcast.Double)
	unordered, sFirst := sys.QueryUnordered(start)
	tour := sys.QueryRoundTrip(start)

	fmt.Printf("post office then café (ordered): %.0f m\n", ordered.Dist)
	order := "post office first"
	if !sFirst {
		order = "café first"
	}
	fmt.Printf("either order (unordered):        %.0f m (%s)\n", unordered.Dist, order)
	fmt.Printf("round trip back to start:        %.0f m\n", tour.Dist)
}

func dist(a, b tnnbcast.Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}
