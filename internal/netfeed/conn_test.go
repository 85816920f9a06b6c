package netfeed

import (
	"context"
	"errors"
	"net"
	"testing"

	"tnnbcast/internal/broadcast"
)

// TestDeliverDesyncNamesDataset feeds deliver a frame that contradicts
// the local schedule on one multiplexed channel, once in the S share of
// the cycle and once in the R share. Both arrive on physical channel 0;
// the desync must name the dataset whose page was due, and must stay the
// session's cause when a later death (here a Close) follows it.
func TestDeliverDesyncNamesDataset(t *testing.T) {
	sp := testSpec(50)
	sp.Single = true
	sp.OffS = 5
	air, err := sp.build(broadcast.FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		slot int64
		want uint8
	}{
		{slot: air.Phase(0), want: 0},
		{slot: air.Phase(0) + air.Indexes[0].CycleLen(), want: 1},
	} {
		tcp, peer := net.Pipe()
		c := &Conn{air: air, slots: make(map[slotKey]*slotState)}
		ctx, die := context.WithCancelCause(context.Background())
		sess := &session{c: c, tcp: tcp, ctx: ctx, die: die}
		c.sess = sess
		pg, owner := air.PageOn(0, tc.slot)
		if owner != int(tc.want) {
			t.Fatalf("slot %d: page owner %d, want %d", tc.slot, owner, tc.want)
		}
		c.deliver(AppendFrame(nil, Frame{
			Channel: 0, Kind: pg.Kind, Slot: tc.slot,
			Ref: uint32(pg.NodeID) + 1, Payload: make([]byte, 8),
		}))
		if ctx.Err() == nil {
			t.Fatalf("slot %d: contradicting frame did not kill the session", tc.slot)
		}
		sess.die(errConnClosed) // the first cause sticks
		var de *DesyncError
		if cause := context.Cause(ctx); !errors.As(cause, &de) {
			t.Fatalf("slot %d: session died with %T %v, want *DesyncError", tc.slot, cause, cause)
		}
		if de.Channel != tc.want || de.Physical != 0 || de.Slot != tc.slot {
			t.Errorf("slot %d: desync %+v, want Channel=%d Physical=0", tc.slot, de, tc.want)
		}
		peer.Close()
	}
}
