package core

import (
	"math/rand"
	"sort"
	"testing"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
)

// Process-level tests: the broadcast search primitives against their
// in-memory oracles, across random channel phases.

func TestBroadcastNNMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		pts := uniformPts(rng, 200+rng.Intn(600), testRegion)
		te := makeEnv(t, pts, pts[:1], testRegion, rng.Int63n(50000), 0)
		for j := 0; j < 20; j++ {
			q := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
			rx := client.NewReceiver(te.env.ChS, rng.Int63n(100000))
			s := NewScratch().nnSearch(rx, q, 0, 16)
			drain(s)
			got, gotD, ok := s.result()
			if !ok {
				t.Fatal("broadcast NN found nothing")
			}
			want, _, _ := te.treeS.NN(q)
			if !almostEq(gotD, geom.Dist(q, want.Point), 1e-9) {
				t.Fatalf("broadcast NN %v (d=%v), in-memory %v (d=%v)",
					got.Point, gotD, want.Point, geom.Dist(q, want.Point))
			}
		}
	}
}

func TestBroadcastTransSearchMatchesInMemory(t *testing.T) {
	// A search switched to the transitive metric before consuming anything
	// must find the same optimum as the in-memory transitive NN.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		pts := clusteredPts(rng, 200+rng.Intn(400), 5, testRegion)
		te := makeEnv(t, pts, pts[:1], testRegion, rng.Int63n(50000), 0)
		for j := 0; j < 15; j++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			r := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			rx := client.NewReceiver(te.env.ChS, rng.Int63n(100000))
			s := NewScratch().nnSearch(rx, p, 0, 16)
			s.switchTransitive(r)
			drain(s)
			got, gotD, ok := s.result()
			if !ok {
				t.Fatal("transitive search found nothing")
			}
			want, _ := te.treeS.TransNN(p, r)
			wantD := geom.TransDist(p, want.Point, r)
			if !almostEq(gotD, wantD, 1e-9) {
				t.Fatalf("broadcast trans %v (d=%v), in-memory %v (d=%v)",
					got.Point, gotD, want.Point, wantD)
			}
		}
	}
}

func TestBroadcastRangeMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		pts := uniformPts(rng, 300+rng.Intn(400), testRegion)
		te := makeEnv(t, pts, pts[:1], testRegion, rng.Int63n(50000), 0)
		for j := 0; j < 15; j++ {
			c := geom.Circle{
				Center: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
				R:      rng.Float64() * 300,
			}
			rx := client.NewReceiver(te.env.ChS, rng.Int63n(100000))
			s := NewScratch().rangeSearch(rx, c, 16)
			drain(s)
			want := te.treeS.RangeCircle(c)
			if s.found.Len() != len(want) {
				t.Fatalf("range found %d, want %d", s.found.Len(), len(want))
			}
			gotIDs := make([]int, s.found.Len())
			for i, e := range s.found.entries() {
				gotIDs[i] = e.ID
			}
			wantIDs := make([]int, len(want))
			for i, e := range want {
				wantIDs[i] = e.ID
			}
			sort.Ints(gotIDs)
			sort.Ints(wantIDs)
			for i := range wantIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatal("range result sets differ")
				}
			}
		}
	}
}

// The retarget path (Hybrid Case 2): a search redirected mid-flight must
// still return a valid object of its dataset, and the result must be at
// least as good as any already-seen point under the new metric.
func TestRetargetMidFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		pts := uniformPts(rng, 500, testRegion)
		te := makeEnv(t, pts, pts[:1], testRegion, rng.Int63n(50000), 0)
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		newQ := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)

		rx := client.NewReceiver(te.env.ChS, rng.Int63n(100000))
		s := NewScratch().nnSearch(rx, p, 0, 16)
		// Run a few steps, then retarget.
		steps := rng.Intn(10)
		for i := 0; i < steps; i++ {
			if _, done := s.Peek(); done {
				break
			}
			s.Step()
		}
		s.retarget(newQ)
		drain(s)
		got, gotD, ok := s.result()
		if !ok {
			t.Fatal("retargeted search found nothing")
		}
		if !almostEq(gotD, geom.Dist(newQ, got.Point), 1e-12) {
			t.Fatal("result distance not under the new metric")
		}
		// The result is the minimum over everything seen.
		for _, e := range s.seen.entries() {
			if geom.Dist(newQ, e.Point) < gotD-1e-9 {
				t.Fatal("a seen point beats the reported result")
			}
		}
	}
}

// Delayed pruning bounds the queue size by roughly (height-1)*(fanout-1)
// live unvisited candidates plus the current node's children (the paper's
// Section 4.2.4 memory argument).
func TestQueueSizeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	pts := uniformPts(rng, 3000, testRegion)
	te := makeEnv(t, pts, pts[:1], testRegion, 0, 0)
	tree := te.treeS
	bound := (tree.Height + 1) * tree.NodeCap * 4 // generous structural bound
	for j := 0; j < 20; j++ {
		q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		rx := client.NewReceiver(te.env.ChS, rng.Int63n(100000))
		s := NewScratch().nnSearch(rx, q, 0, 16)
		maxQ := 0
		for {
			if _, done := s.Peek(); done {
				break
			}
			s.Step()
			if s.queue.Len() > maxQ {
				maxQ = s.queue.Len()
			}
		}
		if maxQ > bound {
			t.Fatalf("queue grew to %d, structural bound %d", maxQ, bound)
		}
	}
}

func TestAlphaMonotoneInDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pts := uniformPts(rng, 500, testRegion)
	te := makeEnv(t, pts, pts[:1], testRegion, 0, 0)
	rx := client.NewReceiver(te.env.ChS, 0)
	s := NewScratch().nnSearch(rx, geom.Pt(0, 0), 0.5, 16)
	prev := -1.0
	for d := 0; d < te.treeS.Height; d++ {
		a := s.alpha(d)
		if a <= prev {
			t.Fatalf("alpha not strictly increasing: depth %d -> %v after %v", d, a, prev)
		}
		prev = a
	}
	// Leaves reach exactly the factor.
	if leaf := s.alpha(te.treeS.Height - 1); !almostEq(leaf, 0.5, 1e-12) {
		t.Errorf("leaf alpha = %v, want 0.5", leaf)
	}
}

func TestOverlapRatioDegenerateMBR(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := uniformPts(rng, 100, testRegion)
	te := makeEnv(t, pts, pts[:1], testRegion, 0, 0)
	rx := client.NewReceiver(te.env.ChS, 0)
	s := NewScratch().nnSearch(rx, geom.Pt(0, 0), 1, 16)
	s.ub = 10
	// Zero-area (degenerate) MBR must be kept, not divided by zero.
	deg := geom.Rect{Lo: geom.Pt(5, 5), Hi: geom.Pt(5, 9)}
	if got := s.overlapRatio(deg); got != 1 {
		t.Errorf("degenerate ratio = %v, want 1", got)
	}
}

// Metrics sanity under the scheduler: per-channel access time equals the
// last download slot + 1 - issue, and the tune-in counts every download.
func TestReceiverMetricsThroughSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	pts := uniformPts(rng, 400, testRegion)
	te := makeEnv(t, pts, pts[:1], testRegion, 1234, 0)
	q := geom.Pt(500, 500)
	issue := int64(777)
	rx := client.NewReceiver(te.env.ChS, issue)
	downloads := int64(0)
	rx.SetTrace(func(int64, broadcast.Page) { downloads++ })
	s := NewScratch().nnSearch(rx, q, 0, 16)
	drain(s)
	if rx.Pages() == 0 {
		t.Fatal("no pages downloaded")
	}
	if downloads != rx.Pages() {
		t.Fatalf("trace saw %d downloads, receiver counted %d", downloads, rx.Pages())
	}
	if rx.AccessTime() <= 0 || rx.AccessTime() > rx.Now()-issue {
		t.Fatalf("access time %d inconsistent with clock %d", rx.AccessTime(), rx.Now())
	}
	if rx.Pages() > rx.AccessTime() {
		t.Fatalf("downloaded %d pages in %d slots", rx.Pages(), rx.AccessTime())
	}
}

// scriptFeed faults the receptions at the slots bad picks and passes every
// other slot through to the wrapped feed.
type scriptFeed struct {
	broadcast.Feed
	bad func(slot int64) bool
}

func (f scriptFeed) Fault(t int64) *broadcast.PageFault {
	if f.bad(t) {
		return &broadcast.PageFault{Slot: t, Kind: broadcast.FaultLost}
	}
	return f.Feed.Fault(t)
}

// TestWalkRecovery pins airWalk's recovery protocol under each of the
// three searches, on feeds that fault scripted slots: a faulted root
// leaves the walk unstarted and re-asks the root arrival; a faulted
// candidate is re-filed at its next arrival; a clean reception resets the
// fault count; maxFaults consecutive faults end the walk with a
// ChannelError of maxFaults attempts, before or after the root.
func TestWalkRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pts := uniformPts(rng, 600, testRegion)
	ch := makeEnv(t, pts, pts[:1], testRegion, 4321, 0).env.ChS
	q := geom.Pt(400, 600)
	type search interface {
		Peek() (int64, bool)
		Step()
	}
	for _, c := range []struct {
		name  string
		start func(rx *client.Receiver, maxFaults int) (search, *airWalk)
	}{
		{"nn", func(rx *client.Receiver, mf int) (search, *airWalk) {
			s := NewScratch().nnSearch(rx, q, 0, mf)
			return s, &s.airWalk
		}},
		{"knn", func(rx *client.Receiver, mf int) (search, *airWalk) {
			s := NewScratch().knnSearch(rx, q, 4, mf)
			return s, &s.airWalk
		}},
		{"range", func(rx *client.Receiver, mf int) (search, *airWalk) {
			s := NewScratch().rangeSearch(rx, geom.Circle{Center: q, R: 150}, mf)
			return s, &s.airWalk
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(bad func(int64) bool, maxFaults int) (search, *airWalk, *client.Receiver) {
				rx := client.NewReceiver(scriptFeed{ch, bad}, 100)
				s, w := c.start(rx, maxFaults)
				return s, w, rx
			}
			clean := func(rx *client.Receiver) int64 { return rx.Pages() - rx.Lost() }

			// A lossless run fixes the root slot and the first candidate
			// received after it.
			s, _, rx := run(func(int64) bool { return false }, 16)
			var slots []int64
			var nodes []int
			rx.SetTrace(func(slot int64, pg broadcast.Page) {
				slots, nodes = append(slots, slot), append(nodes, pg.NodeID)
			})
			drain(s)
			if len(slots) < 2 || nodes[0] != 0 {
				t.Fatalf("lossless walk received %v (nodes %v), want the root and a candidate", slots, nodes)
			}
			root, cand, node := slots[0], slots[1], nodes[1]

			// A faulted root: still unstarted, next at the root's next
			// arrival; the clean retry starts the walk and resets the count.
			s, w, rx := run(func(t int64) bool { return t == root }, 16)
			if s.Step(); w.started || w.faults != 1 || w.next != ch.NextRootArrival(root+1) {
				t.Fatalf("faulted root: started %v, faults %d, next %d; want unstarted at %d",
					w.started, w.faults, w.next, ch.NextRootArrival(root+1))
			}
			if s.Step(); !w.started || w.faults != 0 || clean(rx) != 1 {
				t.Fatalf("root retry: started %v, faults %d, clean receptions %d", w.started, w.faults, clean(rx))
			}

			// A faulted candidate: re-filed at its next arrival; the next
			// clean reception resets the count.
			s, w, rx = run(func(t int64) bool { return t == cand }, 16)
			for rx.Lost() == 0 {
				s.Step()
			}
			refiled := false
			for i := range w.queue.Len() {
				c := w.queue.At(i)
				refiled = refiled || (int(c.Key) == node && c.Arrival == ch.NextNodeArrival(node, cand+1))
			}
			if !refiled || w.faults != 1 || w.finished {
				t.Fatalf("faulted node %d at %d: re-filed %v, faults %d, finished %v", node, cand, refiled, w.faults, w.finished)
			}
			for n := clean(rx); clean(rx) == n; {
				s.Step()
			}
			if w.faults != 0 {
				t.Fatalf("clean reception left the fault count at %d", w.faults)
			}

			// maxFaults consecutive faults, at the root or mid-walk.
			for _, from := range []int64{0, cand} {
				s, w, rx = run(func(t int64) bool { return t >= from }, 3)
				if drain(s); w.err == nil || w.err.Attempts != 3 || rx.Lost() != 3 || w.started != (from > 0) {
					t.Fatalf("faults from slot %d: err %v, lost %d, started %v; want 3 attempts", from, w.err, rx.Lost(), w.started)
				}
			}
		})
	}
}
