// White-box coverage for the RemoteSystem error translation and issue
// rule: the mapping from netfeed's connection-level failures onto the
// public taxonomy is pure, and the request pipeline reads the connection
// only through the liveConn seam, so both are proven here without a
// socket in sight. (The loopback and
// chaos suites cover the same paths end-to-end, but only on whichever
// branch the network happens to take that run.)
package tnnbcast

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"tnnbcast/internal/netfeed"
)

func TestTranslateDesyncChannels(t *testing.T) {
	for _, tc := range []struct {
		in   netfeed.DesyncError
		want string
	}{
		{netfeed.DesyncError{Channel: 0, Physical: 0, Slot: 42}, "S"},
		{netfeed.DesyncError{Channel: 1, Physical: 1, Slot: 42}, "R"},
		// One multiplexed channel: an R page is due on physical channel 0.
		{netfeed.DesyncError{Channel: 1, Physical: 0, Slot: 42}, "R"},
	} {
		err := translate(&tc.in, nil)
		var de *DesyncError
		if !errors.As(err, &de) {
			t.Fatalf("%+v: got %T %v, want *DesyncError", tc.in, err, err)
		}
		if de.Channel != tc.want || de.Slot != 42 || de.Fault != nil {
			t.Errorf("%+v: translated %+v, want Channel=%q Slot=42 Fault=nil", tc.in, de, tc.want)
		}
	}
}

func TestTranslateDesyncKeepsChannelFault(t *testing.T) {
	fault := &PageFaultError{Channel: "R", Slot: 40, Corrupt: true}
	resultErr := &ChannelError{Channel: "R", Attempts: 3, Fault: fault}
	err := translate(&netfeed.DesyncError{Channel: 1, Slot: 41}, resultErr)
	var de *DesyncError
	if !errors.As(err, &de) {
		t.Fatalf("got %T %v, want *DesyncError", err, err)
	}
	if de.Fault != fault {
		t.Errorf("final fault not preserved through translation: %+v", de.Fault)
	}
	// Unwrap must reach the fault so errors.As keeps working downstream.
	var pf *PageFaultError
	if !errors.As(de, &pf) || pf != fault {
		t.Errorf("DesyncError does not unwrap to its PageFaultError")
	}
}

func TestTranslateSpecChange(t *testing.T) {
	err := translate(&netfeed.SpecChangeError{OldDigest: 1, NewDigest: 2}, nil)
	var de *DesyncError
	if !errors.As(err, &de) {
		t.Fatalf("got %T %v, want *DesyncError", err, err)
	}
	if de.Channel != "" || de.Slot != -1 {
		t.Errorf("spec-change form not marked: Channel=%q Slot=%d, want \"\"/-1", de.Channel, de.Slot)
	}
}

func TestTranslateDegraded(t *testing.T) {
	cause := errors.New("read: connection reset by peer")
	for _, tc := range []struct {
		state    netfeed.State
		terminal bool
	}{
		{netfeed.StateDegraded, false},
		{netfeed.StateResuming, false},
		{netfeed.StateClosed, true},
	} {
		err := translate(&netfeed.DegradedError{State: tc.state, Attempt: 3, Err: cause}, nil)
		var dg *DegradedError
		if !errors.As(err, &dg) {
			t.Fatalf("%v: got %T %v, want *DegradedError", tc.state, err, err)
		}
		if dg.Terminal != tc.terminal || dg.Attempts != 3 || !errors.Is(dg, cause) {
			t.Errorf("%v: translated %+v (terminal=%v), want terminal=%v attempts=3 unwrapping the cause",
				tc.state, dg, dg.Terminal, tc.terminal)
		}
	}
}

func TestTranslatePassThrough(t *testing.T) {
	resultErr := &ChannelError{Channel: "S", Attempts: 2}
	// A result error with no connection failure passes through untouched.
	if got := translate(nil, resultErr); got != resultErr {
		t.Errorf("nil connErr: got %v, want the result error unchanged", got)
	}
	// An unrelated connection error yields the result error when present…
	connErr := errors.New("some socket hiccup")
	if got := translate(connErr, resultErr); got != resultErr {
		t.Errorf("unrelated connErr with resultErr: got %v, want the result error", got)
	}
	// …and itself when not.
	if got := translate(connErr, nil); got != connErr {
		t.Errorf("unrelated connErr alone: got %v, want it unchanged", got)
	}
	// Nothing at all stays nothing.
	if got := translate(nil, nil); got != nil {
		t.Errorf("nil/nil: got %v, want nil", got)
	}
}

// fakeLive is a live connection without a socket: a fixed next issue slot
// and a fixed connection failure.
type fakeLive struct {
	issue int64
	err   error
}

func (f fakeLive) NextIssueSlot() int64 { return f.issue }
func (f fakeLive) Err() error           { return f.err }

// TestLiveRulesOnEveryEntryPoint holds the two remote rules on every
// entry point of the variant digest (Do, Start, QueryBatch) and every
// variant: a query issues at the connection's
// next issue slot unless WithIssue overrides, and a connection-level
// *netfeed.DesyncError reaches the answer's error — TopKResult.Err for a
// top-k query — as a public *DesyncError.
func TestLiveRulesOnEveryEntryPoint(t *testing.T) {
	sys, err := New(UniformDataset(11, 90, digestRegion), UniformDataset(12, 70, digestRegion),
		WithRegion(digestRegion), WithPhases(31, 57))
	if err != nil {
		t.Fatal(err)
	}
	twin := *sys // the same broadcast, in process
	sys.live = fakeLive{issue: 4321, err: &netfeed.DesyncError{Channel: 1, Slot: 42}}

	p := Pt(480, 530)
	for _, req := range []Request{
		{Point: p, Algo: Hybrid},
		{Point: p, Variant: Unordered},
		{Point: p, Variant: RoundTrip},
		{Point: p, Variant: TopK, K: 4},
		{Point: p, Variant: TopK, K: 4, Options: []QueryOption{WithIssue(77)}},
	} {
		issue := []QueryOption{WithIssue(4321)}
		if len(req.Options) > 0 {
			issue = req.Options // the explicit WithIssue wins
		}
		twinReq := req
		twinReq.Options = issue
		want, err := twin.Do(twinReq)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range digestEntries {
			label := entry.name + "/" + req.Variant.String()
			got := entry.run(t, sys, []Request{req})[0]
			answerErr, otherErr := got.Result.Err, got.TopK.Err
			if req.Variant == TopK {
				answerErr, otherErr = otherErr, answerErr
			}
			var de *DesyncError
			if !errors.As(answerErr, &de) || de.Channel != "R" || de.Slot != 42 {
				t.Errorf("%s: answer error %v (%T), want the translated *DesyncError", label, answerErr, answerErr)
			}
			if otherErr != nil {
				t.Errorf("%s: the unused answer carries error %v", label, otherErr)
			}
			got.Result.Err, got.TopK.Err = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: answer differs from the twin issued at the same slot:\n live %+v\n twin %+v", label, got, want)
			}
		}
	}
}

// TestLiveRejectsNonFinitePoint: a RemoteSystem admits through the same
// prepare, so a query point with a NaN coordinate is an
// *InvalidPointError from Do, Start and QueryBatch on a live connection
// too, never a query on the air.
func TestLiveRejectsNonFinitePoint(t *testing.T) {
	sys, err := New(UniformDataset(11, 90, digestRegion), UniformDataset(12, 70, digestRegion),
		WithRegion(digestRegion))
	if err != nil {
		t.Fatal(err)
	}
	sys.live = fakeLive{issue: 4321}
	req := Request{Point: Pt(math.NaN(), 530), Variant: RoundTrip}
	_, doErr := sys.Do(req)
	_, startErr := sys.Start(req)
	_, batchErr := sys.QueryBatch([]Request{req})
	for i, err := range []error{doErr, startErr, batchErr} {
		var pe *InvalidPointError
		if !errors.As(err, &pe) || pe.Dataset != "query" {
			t.Errorf("%s: err %v, want *InvalidPointError for the query point",
				[]string{"Do", "Start", "QueryBatch"}[i], err)
		}
	}
}
