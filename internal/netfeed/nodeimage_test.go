package netfeed

import (
	"testing"

	"tnnbcast/internal/broadcast"
)

// TestNoNodeImageOnTheWire checks that neither end of the wire needs the
// trees' pointer image: a server encodes its cycles and a client rebuilds
// its air from the preamble on the Flat image alone.
func TestNoNodeImageOnTheWire(t *testing.T) {
	srv, conns, _ := idleServer(t, TransportUDP)
	for _, side := range []struct {
		who string
		air *broadcast.Air
	}{{"server", srv.air}, {"client", conns[0].Air()}} {
		for i, tr := range side.air.Trees {
			if tr.NodeImageBuilt() {
				t.Errorf("%s tree %d: node image built", side.who, i)
			}
		}
	}
}
