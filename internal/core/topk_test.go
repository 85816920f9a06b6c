package core

import (
	"math/rand"
	"testing"

	"tnnbcast/internal/client"
	"tnnbcast/internal/geom"
)

func TestKNNSearchMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		pts := uniformPts(rng, 200+rng.Intn(400), testRegion)
		te := makeEnv(t, pts, pts[:1], testRegion, rng.Int63n(50000), 0)
		for _, k := range []int{1, 3, 10} {
			for j := 0; j < 8; j++ {
				q := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				rx := client.NewReceiver(te.env.ChS, rng.Int63n(100000))
				s := NewScratch().knnSearch(rx, q, k, 16)
				drain(s)
				got := s.results()
				want, _ := te.treeS.KNN(q, k)
				if len(got) != len(want) {
					t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
				}
				for i := range want {
					if !almostEq(geom.Dist(q, got[i].Point), geom.Dist(q, want[i].Point), 1e-9) {
						t.Fatalf("k=%d rank %d: dist %v, want %v", k, i,
							geom.Dist(q, got[i].Point), geom.Dist(q, want[i].Point))
					}
				}
			}
		}
	}
}

func TestKNNSearchDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	pts := uniformPts(rng, 5, testRegion)
	te := makeEnv(t, pts, pts[:1], testRegion, 0, 0)
	// k larger than dataset: all points, sorted.
	rx := client.NewReceiver(te.env.ChS, 0)
	s := NewScratch().knnSearch(rx, geom.Pt(500, 500), 50, 16)
	drain(s)
	if len(s.results()) != 5 {
		t.Fatalf("got %d results, want 5", len(s.results()))
	}
	// k = 0: finished immediately.
	rx2 := client.NewReceiver(te.env.ChS, 0)
	s2 := NewScratch().knnSearch(rx2, geom.Pt(500, 500), 0, 16)
	drain(s2)
	if len(s2.results()) != 0 || rx2.Pages() != 0 {
		t.Fatal("k=0 should do nothing")
	}
}

func TestTopKTNNMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		ptsS := uniformPts(rng, 100+rng.Intn(150), testRegion)
		ptsR := clusteredPts(rng, 80+rng.Intn(120), 4, testRegion)
		te := makeEnv(t, ptsS, ptsR, testRegion, rng.Int63n(9999), rng.Int63n(9999))
		for _, k := range []int{1, 2, 5, 10} {
			for j := 0; j < 4; j++ {
				p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				got := RunVariant(te.env, TopK, k, p, Options{})
				if !got.Found {
					t.Fatalf("k=%d: not found", k)
				}
				want := OracleTopK(p, te.treeS, te.treeR, k)
				if len(got.Pairs) != len(want) {
					t.Fatalf("k=%d: got %d pairs, want %d", k, len(got.Pairs), len(want))
				}
				for i := range want {
					if !almostEq(got.Pairs[i].Dist, want[i].Dist, 1e-9) {
						t.Fatalf("k=%d rank %d: dist %v, oracle %v",
							k, i, got.Pairs[i].Dist, want[i].Dist)
					}
				}
				// Ascending order.
				for i := 1; i < len(got.Pairs); i++ {
					if got.Pairs[i].Dist < got.Pairs[i-1].Dist {
						t.Fatalf("k=%d: pairs not sorted", k)
					}
				}
			}
		}
	}
}

func TestTopKTNNTop1EqualsTNN(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ptsS := uniformPts(rng, 300, testRegion)
	ptsR := uniformPts(rng, 300, testRegion)
	te := makeEnv(t, ptsS, ptsR, testRegion, 11, 22)
	for j := 0; j < 10; j++ {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		topk := RunVariant(te.env, TopK, 1, p, Options{})
		want, _ := OracleTNN(p, te.treeS, te.treeR)
		if !topk.Found || !almostEq(topk.Pairs[0].Dist, want.Dist, 1e-9) {
			t.Fatalf("top-1 %v, TNN oracle %v", topk.Pairs[0].Dist, want.Dist)
		}
	}
}

func TestTopKTNNEdgeCases(t *testing.T) {
	te := makeEnv(t, nil, []geom.Point{geom.Pt(1, 1)}, testRegion, 0, 0)
	if res := RunVariant(te.env, TopK, 3, geom.Pt(0, 0), Options{}); res.Found {
		t.Error("empty S should not find")
	}
	if res := RunVariant(te.env, TopK, 0, geom.Pt(0, 0), Options{}); res.Found {
		t.Error("k=0 should not find")
	}
}
