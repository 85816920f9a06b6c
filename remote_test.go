// White-box coverage for the RemoteSystem error translation: the mapping
// from netfeed's connection-level failures onto the public taxonomy is
// pure, so it is proven here without a socket in sight. (The loopback and
// chaos suites cover the same paths end-to-end, but only on whichever
// branch the network happens to take that run.)
package tnnbcast

import (
	"errors"
	"testing"

	"tnnbcast/internal/netfeed"
)

func TestTranslateDesyncChannels(t *testing.T) {
	rs := &RemoteSystem{}
	for _, tc := range []struct {
		in   netfeed.DesyncError
		want string
	}{
		{netfeed.DesyncError{Channel: 0, Physical: 0, Slot: 42}, "S"},
		{netfeed.DesyncError{Channel: 1, Physical: 1, Slot: 42}, "R"},
		// One multiplexed channel: an R page is due on physical channel 0.
		{netfeed.DesyncError{Channel: 1, Physical: 0, Slot: 42}, "R"},
	} {
		err := rs.translate(&tc.in, nil)
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
	rs := &RemoteSystem{}
	fault := &PageFaultError{Channel: "R", Slot: 40, Corrupt: true}
	resultErr := &ChannelError{Channel: "R", Attempts: 3, Fault: fault}
	err := rs.translate(&netfeed.DesyncError{Channel: 1, Slot: 41}, resultErr)
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
	rs := &RemoteSystem{}
	err := rs.translate(&netfeed.SpecChangeError{OldDigest: 1, NewDigest: 2}, nil)
	var de *DesyncError
	if !errors.As(err, &de) {
		t.Fatalf("got %T %v, want *DesyncError", err, err)
	}
	if de.Channel != "" || de.Slot != -1 {
		t.Errorf("spec-change form not marked: Channel=%q Slot=%d, want \"\"/-1", de.Channel, de.Slot)
	}
}

func TestTranslateDegraded(t *testing.T) {
	rs := &RemoteSystem{}
	cause := errors.New("read: connection reset by peer")
	for _, tc := range []struct {
		state    netfeed.State
		terminal bool
	}{
		{netfeed.StateDegraded, false},
		{netfeed.StateResuming, false},
		{netfeed.StateClosed, true},
	} {
		err := rs.translate(&netfeed.DegradedError{State: tc.state, Attempt: 3, Err: cause}, nil)
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
	rs := &RemoteSystem{}
	resultErr := &ChannelError{Channel: "S", Attempts: 2}
	// A result error with no connection failure passes through untouched.
	if got := rs.translate(nil, resultErr); got != resultErr {
		t.Errorf("nil connErr: got %v, want the result error unchanged", got)
	}
	// An unrelated connection error yields the result error when present…
	connErr := errors.New("some socket hiccup")
	if got := rs.translate(connErr, resultErr); got != resultErr {
		t.Errorf("unrelated connErr with resultErr: got %v, want the result error", got)
	}
	// …and itself when not.
	if got := rs.translate(connErr, nil); got != connErr {
		t.Errorf("unrelated connErr alone: got %v, want it unchanged", got)
	}
	// Nothing at all stays nothing.
	if got := rs.translate(nil, nil); got != nil {
		t.Errorf("nil/nil: got %v, want nil", got)
	}
}
