// Dozeplot extracts a doze/wake NIC schedule from the public event
// stream (Query API v2). The paper's tune-in metric is an energy proxy
// precisely because a mobile client can power the radio down between
// scheduled page arrivals; this demo turns one query's PageDownloaded
// events into the explicit wake windows a NIC driver would program, and
// then uses the same stream's mid-flight stopping to enforce a tune-in
// budget.
//
// Run with: go run ./examples/dozeplot
package main

import (
	"fmt"

	"tnnbcast"
)

// window is one contiguous wake interval on one channel.
type window struct {
	ch       string
	from, to int64 // inclusive slot range
	kind     string
}

func main() {
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(1, 4000, region)
	r := tnnbcast.UniformDataset(2, 4000, region)
	sys, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region), tnnbcast.WithPhases(500, 900))
	if err != nil {
		panic(err)
	}
	p := tnnbcast.Pt(19500, 19500)

	for _, algo := range []tnnbcast.Algorithm{tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid} {
		cur, err := sys.Start(tnnbcast.Request{Point: p, Algo: algo})
		if err != nil {
			panic(err)
		}

		// Fold the page events into per-channel wake windows: consecutive
		// slots on the same channel are one radio wake-up.
		var wins []window
		phases := map[int64]string{}
		for ev := range cur.Events() {
			switch e := ev.(type) {
			case tnnbcast.PhaseStart:
				phases[e.Slot] = e.Phase.String()
			case tnnbcast.PageDownloaded:
				kind := "index"
				if e.Kind == tnnbcast.PageData {
					kind = "data"
				}
				n := len(wins)
				if n > 0 && wins[n-1].ch == e.Channel && wins[n-1].to == e.Slot-1 && wins[n-1].kind == kind {
					wins[n-1].to = e.Slot
					continue
				}
				wins = append(wins, window{ch: e.Channel, from: e.Slot, to: e.Slot, kind: kind})
			}
		}
		res := cur.Response().Result

		fmt.Printf("%v: %d wake windows, %d pages awake over %d slots (duty cycle %.2f%%)\n",
			algo, len(wins), res.TuneIn, res.AccessTime,
			100*float64(res.TuneIn)/float64(res.AccessTime))
		for _, w := range wins {
			doze := ""
			if ph, ok := phases[w.from]; ok {
				doze = "  <- " + ph + " phase begins"
			}
			fmt.Printf("  wake [%s] slots %6d..%-6d (%2d pages, %s)%s\n",
				w.ch, w.from, w.to, w.to-w.from+1, w.kind, doze)
		}
	}

	// Mid-flight stopping: hand the radio a strict tune-in budget and stop
	// the query the moment it is exhausted. The cursor stays intact, so the
	// application can decide to resume (here: report how far it got).
	const budget = 20
	cur, err := sys.Start(tnnbcast.Request{Point: p, Algo: tnnbcast.Double})
	if err != nil {
		panic(err)
	}
	pages := 0
	for ev := range cur.Events() {
		if _, ok := ev.(tnnbcast.PageDownloaded); ok {
			pages++
			if pages >= budget {
				break
			}
		}
	}
	fmt.Printf("\nbudgeted run: stopped Double-NN after %d downloaded pages (done=%v)\n", pages, cur.Done())
	for ev := range cur.Events() { // resume to completion
		if a, ok := ev.(tnnbcast.Answer); ok {
			fmt.Printf("resumed to completion: dist %.2f, tune-in %d pages\n",
				a.Response.Result.Dist, a.Response.Result.TuneIn)
		}
	}
}
