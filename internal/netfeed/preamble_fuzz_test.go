package netfeed

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"slices"
	"testing"
	"time"

	"tnnbcast/internal/broadcast"
)

// reseal makes a full preamble's spec digest and CRC agree with its
// bytes, as any peer can compute them, so that a mutated blob reaches the
// field checks behind those two.
func reseal(blob []byte) []byte {
	if len(blob) < preambleHeaderSize+4 {
		return blob
	}
	out := slices.Clone(blob)
	payload := out[:len(out)-4]
	binary.BigEndian.PutUint64(payload[preambleHeaderSize-8:], specDigest(payload[preambleHeaderSize:]))
	binary.BigEndian.PutUint32(out[len(out)-4:], crc32.Checksum(payload, frameCRC))
	return out
}

// FuzzPreambleDecode feeds the preamble decoder hostile blobs whose digest
// and CRC are resealed after each mutation. decodePreamble must never
// panic and must fail only with a *FrameError or a broadcast page
// parameter error; a spec it accepts must build without a panic (into an
// air or an error), and re-encode to the spec body it was decoded from.
func FuzzPreambleDecode(f *testing.F) {
	specs := pinSpecs()
	for _, name := range slices.Sorted(maps.Keys(specs)) {
		f.Add(appendPreamble(nil, specs[name], time.Millisecond, 42))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(data)
		spec, _, _, _, warm, err := decodePreamble(data)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) && !isBroadcastConfigErr(err) {
				t.Fatalf("decodePreamble returned untyped error %T: %v", err, err)
			}
			return
		}
		if warm {
			return
		}
		if body := data[preambleHeaderSize : len(data)-4]; !slices.Equal(appendSpecBody(nil, spec), body) {
			t.Fatal("accepted spec does not re-encode to its spec body")
		}
		if air, err := spec.build(broadcast.FaultModel{}); err == nil && air == nil {
			t.Fatal("build returned neither an air nor an error")
		}
	})
}
