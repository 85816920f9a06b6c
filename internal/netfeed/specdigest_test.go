package netfeed

import (
	"testing"

	"tnnbcast/internal/broadcast"
)

// pinSpecs are four specs that between them set every spec-body field:
// a flat two-channel spec, a skewed one with weights on both datasets, a
// single-channel one, and a distributed one with an explicit cut.
func pinSpecs() map[string]Spec {
	weights := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + i%7)
		}
		return w
	}
	flat := testSpec(40)
	flat.OffS, flat.OffR = 17, 91

	skewed := testSpec(40)
	skewed.SkewDisks, skewed.SkewRatio = 3, 2
	skewed.WS, skewed.WR = weights(len(skewed.S)), weights(len(skewed.R))

	single := testSpec(40)
	single.Single = true
	single.OffS = 5

	dist := testSpec(40)
	dist.Scheme = broadcast.SchemeDistributed
	dist.Cut = 2
	dist.Params.M = 3
	return map[string]Spec{"flat": flat, "skewed": skewed, "single": single, "distributed": dist}
}

// TestPreambleSpecDigest pins the spec body bytes the preamble carries:
// one FNV-1a word of appendSpecBody per spec. A change to the codec or to
// the spec a caller builds moves a word; the warm-resume key and every
// client's rebuilt schedule depend on these bytes.
func TestPreambleSpecDigest(t *testing.T) {
	want := map[string]uint64{
		"flat":        0x8bb5aa2d397728eb,
		"skewed":      0xc54d75e7feebb140,
		"single":      0x3f2b9d5a7839299b,
		"distributed": 0x3eb251ffdbb6c01b,
	}
	for name, sp := range pinSpecs() {
		if got := specDigest(appendSpecBody(nil, sp)); got != want[name] {
			t.Errorf("%s: spec body digest %#016x, want %#016x", name, got, want[name])
		}
	}
}
