package tnnbcast_test

// Input-validation coverage: non-finite dataset points and regions are
// rejected with typed errors, phase offsets are cyclic and normalized, and
// empty datasets flow through every query path as Found == false rather
// than panicking.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tnnbcast"
)

func TestNewRejectsNonFinitePoints(t *testing.T) {
	good := []tnnbcast.Point{tnnbcast.Pt(1, 2), tnnbcast.Pt(3, 4), tnnbcast.Pt(5, 6)}
	cases := []struct {
		name string
		bad  tnnbcast.Point
	}{
		{"NaN-x", tnnbcast.Pt(math.NaN(), 1)},
		{"NaN-y", tnnbcast.Pt(1, math.NaN())},
		{"+Inf", tnnbcast.Pt(math.Inf(1), 1)},
		{"-Inf", tnnbcast.Pt(0, math.Inf(-1))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			withBad := append(append([]tnnbcast.Point{}, good...), c.bad)

			_, err := tnnbcast.New(withBad, good)
			var pe *tnnbcast.InvalidPointError
			if !errors.As(err, &pe) {
				t.Fatalf("New(S invalid): err = %v, want *InvalidPointError", err)
			}
			if pe.Dataset != "S" || pe.Index != 3 {
				t.Fatalf("error locates %s[%d], want S[3]", pe.Dataset, pe.Index)
			}

			_, err = tnnbcast.New(good, withBad)
			if !errors.As(err, &pe) {
				t.Fatalf("New(R invalid): err = %v, want *InvalidPointError", err)
			}
			if pe.Dataset != "R" || pe.Index != 3 {
				t.Fatalf("error locates %s[%d], want R[3]", pe.Dataset, pe.Index)
			}

			_, err = tnnbcast.NewChain([][]tnnbcast.Point{good, withBad})
			if !errors.As(err, &pe) {
				t.Fatalf("NewChain: err = %v, want *InvalidPointError", err)
			}
			if pe.Dataset != "datasets[1]" || pe.Index != 3 {
				t.Fatalf("error locates %s[%d], want datasets[1][3]", pe.Dataset, pe.Index)
			}
		})
	}
}

func TestNewRejectsBadRegion(t *testing.T) {
	good := []tnnbcast.Point{tnnbcast.Pt(1, 2), tnnbcast.Pt(3, 4)}
	for _, bad := range []tnnbcast.Rect{
		tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(math.Inf(1), 10)), // non-finite
		{Lo: tnnbcast.Pt(10, 0), Hi: tnnbcast.Pt(0, 10)},                 // inverted x
		{Lo: tnnbcast.Pt(0, 10), Hi: tnnbcast.Pt(10, 0)},                 // inverted y
	} {
		_, err := tnnbcast.New(good, good, tnnbcast.WithRegion(bad))
		var re *tnnbcast.InvalidRegionError
		if !errors.As(err, &re) {
			t.Fatalf("WithRegion(%v): err = %v, want *InvalidRegionError", bad, err)
		}
	}
}

// TestPhaseNormalization: phase offsets are cyclic, so negative and
// beyond-cycle offsets must configure the identical broadcast — same
// normalized Phases, same Results — as their canonical equivalents.
func TestPhaseNormalization(t *testing.T) {
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(3001, 500, region)
	r := tnnbcast.UniformDataset(3002, 400, region)

	base, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region), tnnbcast.WithPhases(100, 200))
	if err != nil {
		t.Fatal(err)
	}
	offS, offR := base.Phases()
	if offS != 100 || offR != 200 {
		t.Fatalf("Phases() = (%d, %d), want (100, 200)", offS, offR)
	}
	stS, stR := base.ChannelStats()
	cycS, cycR := stS.CycleLen, stR.CycleLen

	equivalents := []struct{ offS, offR int64 }{
		{100 - cycS, 200 - cycR},         // negative
		{100 + cycS, 200 + cycR},         // one cycle beyond
		{100 - 3*cycS, 200 + 7*cycR},     // far out on both sides
		{100 + cycS*1000, 200 - cycR*42}, // very far out
	}
	q := tnnbcast.Pt(19500, 19500)
	want := base.Query(q, tnnbcast.Hybrid)
	for _, e := range equivalents {
		sys, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region), tnnbcast.WithPhases(e.offS, e.offR))
		if err != nil {
			t.Fatal(err)
		}
		gS, gR := sys.Phases()
		if gS != 100 || gR != 200 {
			t.Fatalf("WithPhases(%d, %d): Phases() = (%d, %d), want (100, 200)",
				e.offS, e.offR, gS, gR)
		}
		if got := sys.Query(q, tnnbcast.Hybrid); got != want {
			t.Fatalf("WithPhases(%d, %d) changed the query outcome", e.offS, e.offR)
		}
	}
}

// TestEmptyDatasetQueries: empty datasets are legal; every algorithm and
// the batch engine complete with Found == false and zero-or-sane metrics
// instead of panicking.
func TestEmptyDatasetQueries(t *testing.T) {
	algos := []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
	}
	some := tnnbcast.UniformDataset(3003, 300, tnnbcast.PaperRegion)

	cases := []struct {
		name string
		s, r []tnnbcast.Point
	}{
		{"both-empty", nil, nil},
		{"S-empty", nil, some},
		{"R-empty", some, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := tnnbcast.New(c.s, c.r, tnnbcast.WithPhases(-7, 1e6))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for _, a := range algos {
				res := sys.Query(tnnbcast.Pt(100, 100), a, tnnbcast.WithIssue(33))
				if res.Found {
					t.Fatalf("%v: Found on empty dataset: %+v", a, res)
				}
			}
			if _, ok := sys.Exact(tnnbcast.Pt(1, 1)); ok {
				t.Fatal("Exact reported an answer on empty data")
			}
			var queries []tnnbcast.Request
			for _, a := range algos {
				queries = append(queries, tnnbcast.Request{Point: tnnbcast.Pt(5, 5), Algo: a})
			}
			for _, res := range mustBatch(t, sys, queries) {
				if res.Result.Found {
					t.Fatalf("batch Found on empty dataset: %+v", res)
				}
			}
		})
	}
}

// TestQueryRejectsNonFinitePoint: a query point with a NaN or infinite
// coordinate is an admission error on every entry point — Do (every
// variant), Start and QueryBatch return *InvalidPointError naming the
// "query" dataset, Query and the variant wrappers panic with it, and
// ChainSystem.Query reports it in ChainResult.Err — instead of tuning in
// to hundreds of pages and answering Found == false.
func TestQueryRejectsNonFinitePoint(t *testing.T) {
	pts := tnnbcast.UniformDataset(41, 200, tnnbcast.PaperRegion)
	sys, err := tnnbcast.New(pts, tnnbcast.UniformDataset(42, 150, tnnbcast.PaperRegion))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := tnnbcast.NewChain([][]tnnbcast.Point{pts, pts, pts})
	if err != nil {
		t.Fatal(err)
	}
	isQueryPoint := func(err error, bad tnnbcast.Point) bool {
		var pe *tnnbcast.InvalidPointError
		return errors.As(err, &pe) && pe.Dataset == "query" && pe.Index == 0 &&
			math.Float64bits(pe.Point.X) == math.Float64bits(bad.X) &&
			math.Float64bits(pe.Point.Y) == math.Float64bits(bad.Y)
	}
	mustPanic := func(t *testing.T, name string, bad tnnbcast.Point, f func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			if !isQueryPoint(err, bad) {
				t.Errorf("%s: panic %v, want *InvalidPointError for the query point", name, err)
			}
		}()
		f()
	}
	for _, bad := range []tnnbcast.Point{
		tnnbcast.Pt(math.NaN(), 1), tnnbcast.Pt(1, math.NaN()),
		tnnbcast.Pt(math.Inf(1), 1), tnnbcast.Pt(1, math.Inf(-1)),
	} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			for _, req := range []tnnbcast.Request{
				{Point: bad, Algo: tnnbcast.Approximate},
				{Point: bad, Variant: tnnbcast.Unordered},
				{Point: bad, Variant: tnnbcast.RoundTrip},
				{Point: bad, Variant: tnnbcast.TopK, K: 3},
			} {
				if resp, err := sys.Do(req); !isQueryPoint(err, bad) || resp.Result.TuneIn != 0 {
					t.Errorf("Do(%v): err %v, tune-in %d; want *InvalidPointError and no tune-in",
						req.Variant, err, resp.Result.TuneIn)
				}
				if cur, err := sys.Start(req); !isQueryPoint(err, bad) || cur != nil {
					t.Errorf("Start(%v): err %v, want *InvalidPointError", req.Variant, err)
				}
				good := tnnbcast.Request{Point: tnnbcast.Pt(500, 500)}
				if _, err := sys.QueryBatch([]tnnbcast.Request{good, req}); !isQueryPoint(err, bad) {
					t.Errorf("QueryBatch(%v): err %v, want *InvalidPointError", req.Variant, err)
				}
			}
			mustPanic(t, "Query", bad, func() { sys.Query(bad, tnnbcast.Double) })
			mustPanic(t, "QueryUnordered", bad, func() { sys.QueryUnordered(bad) })
			mustPanic(t, "QueryRoundTrip", bad, func() { sys.QueryRoundTrip(bad) })
			if res := chain.Query(bad); !isQueryPoint(res.Err, bad) || res.Found || res.TuneIn != 0 {
				t.Errorf("ChainSystem.Query: %+v, want Err *InvalidPointError and no tune-in", res)
			}
		})
	}
}
