package tnnbcast_test

// Golden equivalence for the shared-cycle batch API: a batch of K
// requests must produce bit-identical answers to K independent Query calls
// with the same points, issue slots, and options — for all four
// algorithms, any batch composition, and any worker count. This is the
// contract that makes QueryBatch a drop-in for the sequential loop.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"tnnbcast"
)

// batchWorkload builds K mixed clients over the region: all four
// algorithms, random issue slots spread over several cycles, a sprinkle of
// ANN and no-retrieval options.
func batchWorkload(seed int64, k int, region tnnbcast.Rect) []tnnbcast.Request {
	rng := rand.New(rand.NewSource(seed))
	algos := []tnnbcast.Algorithm{
		tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
	}
	qs := make([]tnnbcast.Request, k)
	for i := range qs {
		q := tnnbcast.Request{
			Point: tnnbcast.Pt(
				region.Lo.X+rng.Float64()*(region.Hi.X-region.Lo.X),
				region.Lo.Y+rng.Float64()*(region.Hi.Y-region.Lo.Y),
			),
			Algo:    algos[i%len(algos)],
			Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(rng.Int63n(200000))},
		}
		switch rng.Intn(4) {
		case 0:
			q.Options = append(q.Options, tnnbcast.WithANN(tnnbcast.FactorWindowDouble))
		case 1:
			q.Options = append(q.Options, tnnbcast.WithoutDataRetrieval())
		}
		qs[i] = q
	}
	return qs
}

func TestGoldenBatchEquivalence(t *testing.T) {
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(2001, 3000, region)
	r := tnnbcast.UniformDataset(2002, 2000, region)
	sys, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region), tnnbcast.WithPhases(977, 51721))
	if err != nil {
		t.Fatal(err)
	}

	queries := batchWorkload(5, 96, region)

	// The sequential reference: one Query call per client.
	want := make([]tnnbcast.Result, len(queries))
	for i, q := range queries {
		want[i] = sys.Query(q.Point, q.Algo, q.Options...)
	}
	// Every algorithm must appear and answer, or the test proves nothing.
	found := 0
	for _, w := range want {
		if w.Found {
			found++
		}
	}
	if found < len(want)*3/4 {
		t.Fatalf("only %d/%d reference queries answered", found, len(want))
	}

	for _, workers := range []int{1, 3, 0} {
		got := mustBatch(t, sys, queries, tnnbcast.WithBatchWorkers(workers))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d clients", workers, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], tnnbcast.Response{Result: want[i]}) {
				t.Fatalf("workers=%d client %d (%v): batch result diverges\n batch: %+v\n query: %+v",
					workers, i, queries[i].Algo, got[i], want[i])
			}
		}
	}
}

// mustBatch runs QueryBatch and fails the test on an error.
func mustBatch(t *testing.T, sys *tnnbcast.System, reqs []tnnbcast.Request, opts ...tnnbcast.BatchOption) []tnnbcast.Response {
	t.Helper()
	out, err := sys.QueryBatch(reqs, opts...)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	return out
}

// TestBatchSingleChannel: the session engine also runs over the
// time-multiplexed single-channel environment.
func TestBatchSingleChannel(t *testing.T) {
	region := tnnbcast.PaperRegion
	s := tnnbcast.UniformDataset(2003, 800, region)
	r := tnnbcast.UniformDataset(2004, 600, region)
	sys, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region),
		tnnbcast.WithSingleChannel(), tnnbcast.WithPhases(4242, 0))
	if err != nil {
		t.Fatal(err)
	}
	queries := batchWorkload(6, 24, region)
	want := make([]tnnbcast.Result, len(queries))
	for i, q := range queries {
		want[i] = sys.Query(q.Point, q.Algo, q.Options...)
	}
	for i, got := range mustBatch(t, sys, queries) {
		if !reflect.DeepEqual(got, tnnbcast.Response{Result: want[i]}) {
			t.Fatalf("client %d: single-channel batch diverges from sequential Query calls", i)
		}
	}
}

// TestBatchNegativeIssueError: batch clients share one timeline starting
// at slot 0, so QueryBatch rejects a negative issue slot with the typed
// *InvalidIssueError naming the request's index.
func TestBatchNegativeIssueError(t *testing.T) {
	region := tnnbcast.PaperRegion
	sys, err := tnnbcast.New(
		tnnbcast.UniformDataset(7001, 60, region),
		tnnbcast.UniformDataset(7002, 60, region),
		tnnbcast.WithRegion(region))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []tnnbcast.Request{
		{Point: tnnbcast.Pt(1, 1), Algo: tnnbcast.Double, Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(0)}}, // slot 0 is valid
		{Point: tnnbcast.Pt(2, 2), Algo: tnnbcast.Double, Options: []tnnbcast.QueryOption{tnnbcast.WithIssue(-3)}},
	}
	out, err := sys.QueryBatch(reqs)
	var iss *tnnbcast.InvalidIssueError
	if !errors.As(err, &iss) {
		t.Fatalf("QueryBatch returned %v (%T), want *InvalidIssueError", err, err)
	}
	if out != nil {
		t.Fatalf("QueryBatch returned %d responses with its error", len(out))
	}
	if iss.Client != 1 || iss.Issue != -3 {
		t.Fatalf("error identifies client %d issue %d, want 1/-3", iss.Client, iss.Issue)
	}
}
