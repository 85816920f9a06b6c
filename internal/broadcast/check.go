package broadcast

import (
	"fmt"

	"tnnbcast/internal/geom"
)

// Field names the input Check rejected.
type Field uint8

const (
	FieldScheme   Field = iota + 1 // AirSpec.Scheme is no index family
	FieldCut                       // AirSpec.Cut is negative
	FieldSchedule                  // a skew's disks or ratio is out of range
	FieldParams                    // Params fail Validate or ValidateFor
	FieldPoint                     // a point has a NaN or infinite coordinate
	FieldWeight                    // a weight vector's length or a weight
	FieldRegion                    // a non-finite or inverted region bound
	FieldFaults                    // Faults fail Validate
)

var fieldNames = [...]string{"", "index scheme", "replicated levels", "skewed schedule",
	"page parameters", "point", "access weight", "service region", "fault model"}

// Reject is why Check refused a broadcast: the field, its dataset (or -1),
// the offending index and value, and the Params or FaultModel error. Index
// is a point or weight (-1: a weight vector's length is wrong), a region
// bound (Lo.X, Lo.Y, Hi.X, Hi.Y), or a schedule's disks (0) or ratio (1).
type Reject struct {
	Field      Field
	Set, Index int
	Value      float64
	Err        error
}

func (r *Reject) Error() string {
	if r.Err != nil {
		return r.Err.Error()
	}
	if r.Set < 0 {
		return fmt.Sprintf("broadcast: %s out of domain: %v", fieldNames[r.Field], r.Value)
	}
	return fmt.Sprintf("broadcast: %s %d of dataset %d out of domain: %v",
		fieldNames[r.Field], r.Index, r.Set, r.Value)
}

// Check returns nil if sets can go on the air under spec, or else the
// first reason in this order: scheme and cut, schedule, page parameters,
// points, weights, region, fault model. The schedule is checked only when
// skewed, the region only when not nil. Check makes one pass over points
// and weights, and allocates only to reject.
func Check(sets [][]geom.Point, spec *AirSpec, region *geom.Rect, skewed bool) *Reject {
	switch d, r := spec.SkewDisks, spec.SkewRatio; {
	case spec.Scheme != SchemePreorder && spec.Scheme != SchemeDistributed:
		return &Reject{Field: FieldScheme, Set: -1, Value: float64(spec.Scheme)}
	case spec.Cut < 0:
		return &Reject{Field: FieldCut, Set: -1, Value: float64(spec.Cut)}
	case skewed && (d < 1 || d > MaxSkewClasses):
		return &Reject{Field: FieldSchedule, Set: -1, Value: float64(d)}
	case skewed && (r < 2 || r > MaxSkewClasses):
		return &Reject{Field: FieldSchedule, Set: -1, Index: 1, Value: float64(r)}
	}
	if err := spec.Params.Validate(); err != nil {
		return &Reject{Field: FieldParams, Set: -1, Err: err}
	}
	for i, set := range sets {
		if err := spec.Params.ValidateFor(len(set)); err != nil {
			return &Reject{Field: FieldParams, Set: i, Err: err}
		}
	}
	for i, set := range sets {
		for j, p := range set {
			for _, v := range [2]float64{p.X, p.Y} {
				if !geom.Finite(v) {
					return &Reject{Field: FieldPoint, Set: i, Index: j, Value: v}
				}
			}
		}
	}
	for i, set := range sets {
		w := spec.Weights[i%2]
		if w != nil && len(w) != len(set) {
			return &Reject{Field: FieldWeight, Set: i, Index: -1, Value: float64(len(w))}
		}
		for j, v := range w {
			if !geom.Finite(v) || v < 0 {
				return &Reject{Field: FieldWeight, Set: i, Index: j, Value: v}
			}
		}
	}
	if region != nil {
		b := [4]float64{region.Lo.X, region.Lo.Y, region.Hi.X, region.Hi.Y}
		for k, v := range b {
			if !geom.Finite(v) || k >= 2 && v < b[k-2] { // Hi below Lo inverts it
				return &Reject{Field: FieldRegion, Set: -1, Index: k, Value: v}
			}
		}
	}
	if err := spec.Faults.Validate(); err != nil {
		return &Reject{Field: FieldFaults, Set: -1, Err: err}
	}
	return nil
}
