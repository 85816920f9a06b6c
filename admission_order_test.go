package tnnbcast_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tnnbcast"
)

// TestAdmissionOrder pins the order in which New and NewChain run their
// admission checks: scheme, schedule, page parameters, points, weights,
// region, fault model. Each case is bad in two adjacent checks, and both
// constructors must report the earlier one.
func TestAdmissionOrder(t *testing.T) {
	good := tnnbcast.UniformDataset(7, 50, tnnbcast.PaperRegion)
	withNaN := append([]tnnbcast.Point(nil), good...)
	withNaN[4].Y = math.NaN()

	var (
		badScheme   = tnnbcast.WithIndexScheme(tnnbcast.IndexScheme(9))
		badSchedule = tnnbcast.WithSkewedSchedule(0, 2)
		badParams   = tnnbcast.WithPageCap(8)
		badWeights  = tnnbcast.WithAccessWeights(nil, []float64{1, 2, 3})
		badRegion   = tnnbcast.WithRegion(tnnbcast.Rect{Lo: tnnbcast.Pt(10, 0), Hi: tnnbcast.Pt(0, 10)})
		badFaults   = tnnbcast.WithFaults(tnnbcast.FaultModel{Loss: 2})
	)
	isA := func(target any) func(error) bool {
		return func(err error) bool { return errors.As(err, target) }
	}
	for _, tc := range []struct {
		name string
		r    []tnnbcast.Point // the second dataset
		opts []tnnbcast.Option
		want func(error) bool
	}{
		{"scheme before schedule", good, []tnnbcast.Option{badSchedule, badScheme},
			isA(new(*tnnbcast.UnknownIndexSchemeError))},
		{"schedule before params", good, []tnnbcast.Option{badParams, badSchedule},
			isA(new(*tnnbcast.InvalidScheduleError))},
		{"params before points", withNaN, []tnnbcast.Option{badParams},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "page capacity") }},
		{"points before weights", withNaN, []tnnbcast.Option{badWeights},
			isA(new(*tnnbcast.InvalidPointError))},
		{"weights before region", good, []tnnbcast.Option{badRegion, badWeights},
			isA(new(*tnnbcast.InvalidWeightError))},
		{"region before faults", good, []tnnbcast.Option{badFaults, badRegion},
			isA(new(*tnnbcast.InvalidRegionError))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tnnbcast.New(good, tc.r, tc.opts...); !tc.want(err) {
				t.Errorf("New: error %T %v", err, err)
			}
			if _, err := tnnbcast.NewChain([][]tnnbcast.Point{good, tc.r}, tc.opts...); !tc.want(err) {
				t.Errorf("NewChain: error %T %v", err, err)
			}
		})
	}
}
