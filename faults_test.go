package tnnbcast_test

import (
	"errors"
	"testing"

	"tnnbcast"
)

// TestWithFaultsPreservesAnswers is the public-API face of the recovery
// protocol: a system built WithFaults answers every query identically to
// the fault-free system over the same data and phases — loss is paid for
// only in access time and tune-in.
func TestWithFaultsPreservesAnswers(t *testing.T) {
	for _, fm := range []tnnbcast.FaultModel{
		{Loss: 0.01, Seed: 4},
		{Loss: 0.03, Burst: 8, Seed: 4},
		{Corrupt: 0.02, Seed: 4},
	} {
		clean := buildSystem(t, tnnbcast.WithPhases(41, 979))
		lossy := buildSystem(t, tnnbcast.WithPhases(41, 979), tnnbcast.WithFaults(fm))
		var totalLost int64
		for _, algo := range []tnnbcast.Algorithm{
			tnnbcast.Window, tnnbcast.Double, tnnbcast.Hybrid, tnnbcast.Approximate,
		} {
			for _, q := range []tnnbcast.Point{
				tnnbcast.Pt(500, 500), tnnbcast.Pt(10, 990), tnnbcast.Pt(777, 123),
				tnnbcast.Pt(250, 40), tnnbcast.Pt(901, 668),
			} {
				want := clean.Query(q, algo)
				got := lossy.Query(q, algo)
				if got.Err != nil {
					t.Fatalf("%+v %v: %v", fm, algo, got.Err)
				}
				if got.Found != want.Found || got.SID != want.SID ||
					got.RID != want.RID || got.Dist != want.Dist {
					t.Fatalf("%+v %v at %v: answer changed: got (%d,%d,%g), want (%d,%d,%g)",
						fm, algo, q, got.SID, got.RID, got.Dist, want.SID, want.RID, want.Dist)
				}
				if want.Lost != 0 || want.Retries != 0 || want.RecoverySlots != 0 || want.Err != nil {
					t.Fatalf("lossless result carries loss accounting: %+v", want)
				}
				if got.Lost == 0 && (got.AccessTime != want.AccessTime || got.TuneIn != want.TuneIn) {
					t.Fatalf("%+v %v: zero faults but metrics moved", fm, algo)
				}
				if got.AccessTime < want.AccessTime {
					t.Fatalf("%+v %v: lossy access %d < clean %d", fm, algo, got.AccessTime, want.AccessTime)
				}
				totalLost += got.Lost
			}
		}
		if totalLost == 0 {
			t.Fatalf("%+v: no query ever faulted — model not wired through", fm)
		}
	}
}

// TestWithFaultsValidation: an out-of-range model must fail System
// construction with a descriptive error, not panic mid-query.
func TestWithFaultsValidation(t *testing.T) {
	region := tnnbcast.RectOf(tnnbcast.Pt(0, 0), tnnbcast.Pt(1000, 1000))
	s := tnnbcast.UniformDataset(1, 50, region)
	r := tnnbcast.UniformDataset(2, 50, region)
	for _, fm := range []tnnbcast.FaultModel{
		{Loss: 1},
		{Loss: -0.5},
		{Corrupt: 1.5},
		{Loss: 0.1, Burst: -3},
	} {
		if _, err := tnnbcast.New(s, r, tnnbcast.WithRegion(region), tnnbcast.WithFaults(fm)); err == nil {
			t.Errorf("WithFaults(%+v) accepted", fm)
		}
	}
}

// TestFaultEscalationTyped: when the retry budget is exhausted the public
// Result carries the typed error chain — *ChannelError wrapping the
// *PageFaultError that ended it — reachable with errors.As.
func TestFaultEscalationTyped(t *testing.T) {
	lossy := buildSystem(t, tnnbcast.WithFaults(tnnbcast.FaultModel{Loss: 0.95, Seed: 2}))
	var escalated bool
	for i := 0; i < 8 && !escalated; i++ {
		res := lossy.Query(tnnbcast.Pt(float64(i)*100, 500), tnnbcast.Window,
			tnnbcast.WithMaxRetries(2), tnnbcast.WithIssue(int64(i)*500))
		if res.Err == nil {
			continue
		}
		escalated = true
		var ce *tnnbcast.ChannelError
		if !errors.As(res.Err, &ce) {
			t.Fatalf("Err is %T, want *tnnbcast.ChannelError", res.Err)
		}
		if ce.Channel == "" || ce.Attempts < 2 || ce.Fault == nil {
			t.Fatalf("ChannelError incomplete: %+v", ce)
		}
		var pf *tnnbcast.PageFaultError
		if !errors.As(res.Err, &pf) {
			t.Fatal("ChannelError does not unwrap to *tnnbcast.PageFaultError")
		}
		if pf.Channel != ce.Channel {
			t.Fatalf("fault channel %q != error channel %q", pf.Channel, ce.Channel)
		}
	}
	if !escalated {
		t.Fatal("95% loss with WithMaxRetries(2) never escalated")
	}
}

// TestCursorPageLostEvents: the event stream's energy ledger must stay
// exact under faults — every tuned-in page is either a PageDownloaded or
// a PageLost event, and the PageLost count equals the Result's Lost.
func TestCursorPageLostEvents(t *testing.T) {
	countEvents := func(sys *tnnbcast.System) (downloaded, lost int64, res tnnbcast.Result) {
		t.Helper()
		cur, err := sys.Start(tnnbcast.Request{Point: tnnbcast.Pt(444, 555), Algo: tnnbcast.Double})
		if err != nil {
			t.Fatal(err)
		}
		for ev := range cur.Events() {
			switch ev.(type) {
			case tnnbcast.PageDownloaded:
				downloaded++
			case tnnbcast.PageLost:
				lost++
			}
		}
		return downloaded, lost, cur.Response().Result
	}

	clean := buildSystem(t)
	d, l, res := countEvents(clean)
	if l != 0 {
		t.Fatalf("lossless cursor emitted %d PageLost events", l)
	}
	if d != res.TuneIn {
		t.Fatalf("lossless: %d PageDownloaded events, TuneIn %d", d, res.TuneIn)
	}

	lossy := buildSystem(t, tnnbcast.WithFaults(tnnbcast.FaultModel{Loss: 0.08, Seed: 13}))
	d, l, res = countEvents(lossy)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if l == 0 {
		t.Fatal("8% loss produced no PageLost events")
	}
	if l != res.Lost {
		t.Fatalf("%d PageLost events, Result.Lost %d", l, res.Lost)
	}
	if d+l != res.TuneIn {
		t.Fatalf("energy ledger broken: %d downloaded + %d lost != TuneIn %d", d, l, res.TuneIn)
	}
}
