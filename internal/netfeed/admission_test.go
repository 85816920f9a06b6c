package netfeed_test

import (
	"errors"
	"math"
	"testing"

	"tnnbcast"
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
	"tnnbcast/internal/netfeed"
)

// admissionOptions extends twinOptions with every spec field the
// admission checks read, so New sees exactly the input NewServer does.
func admissionOptions(sp netfeed.Spec) []tnnbcast.Option {
	opts := append(twinOptions(sp),
		tnnbcast.WithAccessWeights(sp.WS, sp.WR),
		tnnbcast.WithInterleave(sp.Params.M),
		tnnbcast.WithReplicatedLevels(sp.Cut))
	if sp.SkewDisks > 0 {
		opts = append(opts, tnnbcast.WithSkewedSchedule(sp.SkewDisks, sp.SkewRatio))
	}
	return opts
}

// TestAdmissionMatchesNew runs each input through both admission checks:
// the root package's New and the wire server's NewServer must accept and
// reject the same specs, so a server never builds a broadcast New would
// refuse (or panics building it).
func TestAdmissionMatchesNew(t *testing.T) {
	weights := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + i%5)
		}
		return w
	}
	base := func() netfeed.Spec {
		sp := loopbackSpec(broadcast.SchemePreorder, false)
		sp.S = tnnbcast.UniformDataset(101, 200, tnnbcast.PaperRegion)
		sp.R = tnnbcast.UniformDataset(202, 200, tnnbcast.PaperRegion)
		return sp
	}
	for _, tc := range []struct {
		name   string
		mutate func(*netfeed.Spec)
		valid  bool
		// badField: the server must answer with a FrameBadField error.
		badField bool
	}{
		{name: "flat", mutate: func(*netfeed.Spec) {}, valid: true},
		{name: "skewed weighted", valid: true, mutate: func(sp *netfeed.Spec) {
			sp.SkewDisks, sp.SkewRatio = 3, 2
			sp.WS, sp.WR = weights(len(sp.S)), weights(len(sp.R))
		}},
		{name: "skewed WS of 3 weights", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.SkewDisks, sp.SkewRatio = 3, 2
			sp.WS = weights(3)
		}},
		{name: "flat WR of 500 weights", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.WR = weights(500)
		}},
		{name: "negative weight", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.WS = weights(len(sp.S))
			sp.WS[7] = -1
		}},
		{name: "NaN point", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.R = append([]geom.Point(nil), sp.R...)
			sp.R[3].X = math.NaN()
		}},
		{name: "inverted region", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.Region.Lo, sp.Region.Hi = sp.Region.Hi, sp.Region.Lo
		}},
		{name: "skew ratio 1", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.SkewDisks, sp.SkewRatio = 3, 1
		}},
		{name: "interleave beyond data pages", mutate: func(sp *netfeed.Spec) {
			sp.Params.M = 10_000
		}},
		{name: "negative cut", badField: true, mutate: func(sp *netfeed.Spec) {
			sp.Scheme, sp.Cut = broadcast.SchemeDistributed, -1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := base()
			tc.mutate(&sp)
			_, newErr := tnnbcast.New(sp.S, sp.R, admissionOptions(sp)...)
			srv, srvErr := netfeed.NewServer(netfeed.ServerConfig{Spec: sp})
			if srvErr == nil {
				srv.Close()
			}
			if (newErr == nil) != tc.valid || (srvErr == nil) != tc.valid {
				t.Fatalf("valid=%v: New error %v, NewServer error %v", tc.valid, newErr, srvErr)
			}
			var fe *netfeed.FrameError
			if tc.badField && (!errors.As(srvErr, &fe) || fe.Reason != netfeed.FrameBadField) {
				t.Errorf("NewServer error %T %v, want a FrameBadField *FrameError", srvErr, srvErr)
			}
		})
	}
}
