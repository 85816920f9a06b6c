package broadcast

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
)

// TestEncodeCycleDigest pins the bytes EncodeCycle airs. For each layout,
// on dedicated channels and on one multiplexed channel, every slot of
// every physical channel's cycle (its index and an image or a data-slot
// marker) is folded into one FNV-1a word. TestEncodeCycleMatchesDecoder
// checks the images against the schedule; this test checks that a change
// to the encoder's data source leaves them byte-identical.
func TestEncodeCycleDigest(t *testing.T) {
	sets := [][]geom.Point{
		dataset.Uniform(11, 300, dataset.PaperRegion),
		dataset.Uniform(12, 120, dataset.PaperRegion),
	}
	rng := rand.New(rand.NewSource(13))
	var weights [2][]float64
	for i, set := range sets {
		weights[i] = make([]float64, len(set))
		for j := range weights[i] {
			weights[i][j] = rng.ExpFloat64()
		}
	}
	layouts := []struct {
		name string
		spec AirSpec
	}{
		{"preorder", AirSpec{Scheme: SchemePreorder}},
		{"distributed", AirSpec{Scheme: SchemeDistributed}},
		{"distributed-cut1", AirSpec{Scheme: SchemeDistributed, Cut: 1}},
		{"preorder+skewed", AirSpec{Scheme: SchemePreorder, SkewDisks: 3, SkewRatio: 2, Weights: weights}},
		{"distributed+skewed", AirSpec{Scheme: SchemeDistributed, SkewDisks: 3, SkewRatio: 2, Weights: weights}},
	}
	want := map[string]uint64{
		"preorder":                0xe3e5ca2b02d4dbad,
		"preorder/dual":           0x1b6277d2c3b01475,
		"distributed":             0x032a068e49052ddb,
		"distributed/dual":        0xda53d313da8b2bed,
		"distributed-cut1":        0x738b6bffaf613680,
		"distributed-cut1/dual":   0xfddfc8fbdd57d509,
		"preorder+skewed":         0x348c16450f3e5398,
		"preorder+skewed/dual":    0x469d621c1812aa0f,
		"distributed+skewed":      0x0f9340cedd384a11,
		"distributed+skewed/dual": 0x774e4b9acab89d16,
	}
	for _, l := range layouts {
		for _, single := range []bool{false, true} {
			name := l.name
			if single {
				name += "/dual"
			}
			spec := l.spec
			spec.Params = DefaultParams()
			spec.Phases = [2]int64{7, -3}
			spec.Single = single
			air := mustAir(t, sets, spec)
			h := fnv.New64a()
			var word [8]byte
			for c := range air.Channels() {
				imgs, err := air.EncodeCycle(c)
				if err != nil {
					t.Fatalf("%s channel %d: %v", name, c, err)
				}
				for rel, img := range imgs {
					binary.BigEndian.PutUint64(word[:], uint64(c)<<48|uint64(rel))
					h.Write(word[:])
					if img == nil {
						h.Write([]byte{0xff})
						continue
					}
					h.Write(img)
				}
			}
			if got := h.Sum64(); got != want[name] {
				t.Errorf("%s: cycle digest %#016x, want %#016x", name, got, want[name])
			}
		}
	}
}
