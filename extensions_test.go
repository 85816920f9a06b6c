package tnnbcast_test

import (
	"errors"
	"math"
	"testing"

	"tnnbcast"
)

func TestChainSystem(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(1000, 1000))
	datasets := [][]tnnbcast.Point{
		tnnbcast.UniformDataset(1, 200, region),
		tnnbcast.UniformDataset(2, 150, region),
		tnnbcast.ClusteredDataset(3, 180, 4, region),
	}
	cs, err := tnnbcast.NewChain(datasets, tnnbcast.WithRegion(region), tnnbcast.WithPhases(19, 73))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []tnnbcast.Point{
		tnnbcast.Pt(500, 500), tnnbcast.Pt(50, 950), tnnbcast.Pt(812, 133),
	} {
		got := cs.Query(q)
		if !got.Found || len(got.Stops) != 3 {
			t.Fatalf("chain query failed: %+v", got)
		}
		want, ok := cs.Exact(q)
		if !ok {
			t.Fatal("chain oracle failed")
		}
		if math.Abs(got.Dist-want.Dist) > 1e-9*(1+want.Dist) {
			t.Fatalf("chain dist %v, oracle %v", got.Dist, want.Dist)
		}
		if got.TuneIn <= 0 || got.AccessTime <= 0 {
			t.Fatalf("bad metrics: %+v", got)
		}
		// Stop IDs reference the right datasets.
		for i, id := range got.StopIDs {
			if datasets[i][id] != got.Stops[i] {
				t.Fatalf("stop %d: ID %d does not match point", i, id)
			}
		}
	}
}

func TestChainSystemInvalidParams(t *testing.T) {
	if _, err := tnnbcast.NewChain(nil, tnnbcast.WithPageCap(5)); err == nil {
		t.Error("expected error for tiny pages")
	}
	// A chain has one channel per dataset; the single-channel option would
	// otherwise be ignored without a word.
	pts := []tnnbcast.Point{tnnbcast.Pt(1, 1), tnnbcast.Pt(2, 2)}
	_, err := tnnbcast.NewChain([][]tnnbcast.Point{pts, pts, pts}, tnnbcast.WithSingleChannel())
	var uerr *tnnbcast.UnsupportedOptionError
	if !errors.As(err, &uerr) || uerr.Option != "WithSingleChannel" {
		t.Errorf("NewChain(WithSingleChannel) err = %v, want *UnsupportedOptionError", err)
	}
}

func TestQueryUnordered(t *testing.T) {
	sys := buildSystem(t)
	for _, q := range []tnnbcast.Point{tnnbcast.Pt(300, 300), tnnbcast.Pt(900, 100)} {
		res, _ := sys.QueryUnordered(q)
		if !res.Found {
			t.Fatal("unordered not found")
		}
		// Never worse than the ordered query.
		ordered := sys.Query(q, tnnbcast.Double)
		if res.Dist > ordered.Dist+1e-9 {
			t.Fatalf("unordered %v worse than ordered %v", res.Dist, ordered.Dist)
		}
	}
}

func TestQueryRoundTrip(t *testing.T) {
	sys := buildSystem(t)
	q := tnnbcast.Pt(444, 555)
	res := sys.QueryRoundTrip(q)
	if !res.Found {
		t.Fatal("round trip not found")
	}
	// The tour is at least the one-way trip plus the return leg's minimum.
	oneWay := sys.Query(q, tnnbcast.Double)
	if res.Dist < oneWay.Dist-1e-9 {
		t.Fatalf("round trip %v below one-way %v", res.Dist, oneWay.Dist)
	}
	// The reported distance matches its own stops.
	want := dist(q, res.S) + dist(res.S, res.R) + dist(res.R, q)
	if math.Abs(res.Dist-want) > 1e-9 {
		t.Fatalf("tour dist %v but stops give %v", res.Dist, want)
	}
}

func dist(a, b tnnbcast.Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

func TestQueryTopK(t *testing.T) {
	sys := buildSystem(t)
	q := tnnbcast.Pt(512, 480)
	resp, err := sys.Do(tnnbcast.Request{Point: q, Variant: tnnbcast.TopK, K: 5})
	top := resp.TopK.Pairs
	if err != nil || !resp.TopK.Found || len(top) != 5 {
		t.Fatalf("top-k failed: err=%v found=%v len=%d", err, resp.TopK.Found, len(top))
	}
	best, _ := sys.Exact(q)
	if math.Abs(top[0].Dist-best.Dist) > 1e-9 {
		t.Fatalf("top-1 %v, oracle %v", top[0].Dist, best.Dist)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Dist < top[i-1].Dist {
			t.Fatal("top-k not sorted")
		}
	}
	var kerr *tnnbcast.InvalidTopKError
	if _, err := sys.Do(tnnbcast.Request{Point: q, Variant: tnnbcast.TopK}); !errors.As(err, &kerr) {
		t.Errorf("k=0: error %v, want *InvalidTopKError", err)
	}
}
