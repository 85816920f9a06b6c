package broadcast

import (
	"math"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
)

// TestCheck runs one bad input per field through Check and requires the
// reason to name that field, its dataset, the offending index and value;
// an accepted input allocates nothing.
func TestCheck(t *testing.T) {
	sets := [][]geom.Point{
		dataset.Uniform(1, 30, dataset.PaperRegion),
		dataset.Uniform(2, 20, dataset.PaperRegion),
	}
	region := dataset.PaperRegion
	good := func() AirSpec {
		return AirSpec{Params: DefaultParams(), Weights: [2][]float64{nil, make([]float64, 20)}}
	}
	spec := good()
	if rej := Check(sets, &spec, &region, false); rej != nil {
		t.Fatalf("valid input refused: %v", rej)
	}
	if n := testing.AllocsPerRun(100, func() { Check(sets, &spec, &region, false) }); n != 0 {
		t.Errorf("Check allocates %v times on a valid input", n)
	}

	nanR := [][]geom.Point{sets[0], append([]geom.Point(nil), sets[1]...)}
	nanR[1][5].Y = math.Inf(-1)
	for _, tc := range []struct {
		name   string
		mutate func(*AirSpec, *geom.Rect) [][]geom.Point
		skewed bool
		want   Reject
	}{
		{"scheme", func(s *AirSpec, _ *geom.Rect) [][]geom.Point { s.Scheme = 7; return sets }, false,
			Reject{Field: FieldScheme, Set: -1, Value: 7}},
		{"cut", func(s *AirSpec, _ *geom.Rect) [][]geom.Point { s.Cut = -2; return sets }, false,
			Reject{Field: FieldCut, Set: -1, Value: -2}},
		{"disks", func(s *AirSpec, _ *geom.Rect) [][]geom.Point { s.SkewRatio = 2; return sets }, true,
			Reject{Field: FieldSchedule, Set: -1, Value: 0}},
		{"ratio", func(s *AirSpec, _ *geom.Rect) [][]geom.Point { s.SkewDisks, s.SkewRatio = 2, 17; return sets }, true,
			Reject{Field: FieldSchedule, Set: -1, Index: 1, Value: 17}},
		{"point", func(*AirSpec, *geom.Rect) [][]geom.Point { return nanR }, false,
			Reject{Field: FieldPoint, Set: 1, Index: 5, Value: math.Inf(-1)}},
		{"weight length", func(s *AirSpec, _ *geom.Rect) [][]geom.Point { s.Weights[0] = []float64{1}; return sets }, false,
			Reject{Field: FieldWeight, Set: 0, Index: -1, Value: 1}},
		{"weight", func(s *AirSpec, _ *geom.Rect) [][]geom.Point {
			s.Weights[1] = make([]float64, 20)
			s.Weights[1][3] = -0.5
			return sets
		}, false, Reject{Field: FieldWeight, Set: 1, Index: 3, Value: -0.5}},
		{"region", func(_ *AirSpec, r *geom.Rect) [][]geom.Point { r.Hi.Y = r.Lo.Y - 1; return sets }, false,
			Reject{Field: FieldRegion, Set: -1, Index: 3, Value: region.Lo.Y - 1}},
	} {
		spec, reg := good(), region
		in := tc.mutate(&spec, &reg)
		rej := Check(in, &spec, &reg, tc.skewed)
		if rej == nil || *rej != tc.want {
			t.Errorf("%s: reason %+v, want %+v", tc.name, rej, tc.want)
		}
	}

	spec = good()
	spec.Params.PageCap = 8
	if rej := Check(sets, &spec, nil, false); rej == nil || rej.Field != FieldParams || rej.Err == nil {
		t.Errorf("page capacity 8: reason %+v, want FieldParams with its error", rej)
	}
	spec = good()
	spec.Faults.Loss = 1
	if rej := Check(sets, &spec, nil, false); rej == nil || rej.Field != FieldFaults || rej.Err == nil {
		t.Errorf("loss 1: reason %+v, want FieldFaults with its error", rej)
	}
}
