package netfeed

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/dataset"
	"tnnbcast/internal/geom"
)

func testSpec(n int) Spec {
	p := broadcast.DefaultParams()
	p.DataSize = 128
	region := dataset.PaperRegion
	return Spec{
		Params: p,
		Region: region,
		S:      dataset.Uniform(1, n, region),
		R:      dataset.Uniform(2, n, region),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Channel: 0, Kind: broadcast.IndexPage, Slot: 0, Ref: 0, Payload: []byte{}},
		{Channel: 1, Kind: broadcast.DataPage, Slot: 1 << 40, Ref: 77, Seq: 3, Payload: make([]byte, 71)},
		{Channel: 255, Kind: broadcast.IndexPage, Slot: -9, Ref: 1<<32 - 1, Payload: []byte{1, 2, 3}},
	} {
		buf := AppendFrame(nil, f)
		got, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame(%+v): %v", f, err)
		}
		if got.Channel != f.Channel || got.Kind != f.Kind || got.Slot != f.Slot ||
			got.Ref != f.Ref || got.Seq != f.Seq || string(got.Payload) != string(f.Payload) {
			t.Fatalf("round trip mismatch: sent %+v got %+v", f, got)
		}
	}
}

func TestFrameDecodeRejectsDamage(t *testing.T) {
	f := Frame{Channel: 1, Kind: broadcast.DataPage, Slot: 42, Ref: 7, Seq: 1, Payload: make([]byte, 64)}
	buf := AppendFrame(nil, f)

	check := func(name string, b []byte, want FrameErrorReason) {
		t.Helper()
		_, err := DecodeFrame(b)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: got %v, want *FrameError", name, err)
		}
		if fe.Reason != want {
			t.Fatalf("%s: reason %v, want %v", name, fe.Reason, want)
		}
	}

	check("truncated", buf[:FrameHeaderSize+2], FrameTruncated)
	check("empty", nil, FrameTruncated)

	bad := append([]byte(nil), buf...)
	bad[0] = 0x00
	check("magic", bad, FrameBadMagic)

	bad = append([]byte(nil), buf...)
	bad[1] = FrameVersion + 1
	check("version skew", bad, FrameVersionSkew)

	bad = append([]byte(nil), buf...)
	bad[18], bad[19] = 0xFF, 0xFF
	check("length lie", bad, FrameBadLength)

	// A payload bit flip must fail the checksum AND still attribute the
	// fault: the decoded header names the slot for the fault accounting.
	bad = append([]byte(nil), buf...)
	bad[FrameHeaderSize+10] ^= 0x40
	got, err := DecodeFrame(bad)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != FrameChecksum {
		t.Fatalf("bit flip: got %v, want checksum FrameError", err)
	}
	if got.Slot != 42 || got.Channel != 1 {
		t.Fatalf("checksum failure lost attribution: %+v", got)
	}
}

// requireFlipsRejected flips every bit of buf, the clean encoding of f,
// and requires DecodeFrame to reject each damaged copy with a typed
// *FrameError. A flip past the header must be a FrameChecksum whose
// decoded header still names f's slot, so the fault is attributed.
func requireFlipsRejected(t *testing.T, buf []byte, f Frame) {
	t.Helper()
	bad := make([]byte, len(buf))
	for i := range buf {
		for bit := range 8 {
			copy(bad, buf)
			bad[i] ^= 1 << bit
			got, err := DecodeFrame(bad)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("slot %d: flip of byte %d bit %d: got %v, want *FrameError", f.Slot, i, bit, err)
			}
			if i < FrameHeaderSize {
				continue
			}
			if fe.Reason != FrameChecksum || got.Channel != f.Channel || got.Kind != f.Kind ||
				got.Slot != f.Slot || got.Ref != f.Ref || got.Seq != f.Seq {
				t.Fatalf("slot %d: flip of byte %d bit %d: %v with header %+v, want a checksum failure naming the slot",
					f.Slot, i, bit, err, got)
			}
		}
	}
}

// TestFrameRejectsEveryBitFlip holds the wire's integrity bar on the
// frames a server actually sends: index and data slots, on dedicated
// channels and on one multiplexed channel. Every single-bit flip of every
// frame is rejected, and one landing in the payload or trailer still
// attributes the damage to its slot.
func TestFrameRejectsEveryBitFlip(t *testing.T) {
	if got := FrameSize(broadcast.DefaultParams()); got != 90 {
		t.Fatalf("FrameSize(DefaultParams()) = %d, want 90", got)
	}
	for _, single := range []bool{false, true} {
		sp := testSpec(60)
		sp.Single = single
		sp.OffS, sp.OffR = 11, 29
		srv, err := NewServer(ServerConfig{Spec: sp})
		if err != nil {
			t.Fatal(err)
		}
		for c := range srv.air.Channels() {
			perKind := map[broadcast.PageKind]int{}
			for t0 := srv.air.Phase(c); perKind[broadcast.IndexPage] < 20 || perKind[broadcast.DataPage] < 20; t0++ {
				pg, _ := srv.air.PageOn(c, t0)
				if perKind[pg.Kind] == 20 {
					continue
				}
				perKind[pg.Kind]++
				buf := srv.frameFor(c, t0).body()
				if len(buf) != FrameSize(sp.Params) {
					t.Fatalf("single=%v channel %d slot %d: frame %dB, want %dB", single, c, t0, len(buf), FrameSize(sp.Params))
				}
				f, err := DecodeFrame(buf)
				if err != nil || f.Slot != t0 || f.Kind != pg.Kind {
					t.Fatalf("single=%v channel %d slot %d: clean frame decodes to %+v, %v", single, c, t0, f, err)
				}
				requireFlipsRejected(t, buf, f)
			}
		}
	}
}

// BenchmarkFrameCodec seals and decodes one standard index frame: the
// per-reception cost of the frame layer on both ends of the wire.
func BenchmarkFrameCodec(b *testing.B) {
	srv, err := NewServer(ServerConfig{Spec: testSpec(200)})
	if err != nil {
		b.Fatal(err)
	}
	t0 := srv.air.Phase(0)
	for pg, _ := srv.air.PageOn(0, t0); pg.Kind != broadcast.IndexPage; pg, _ = srv.air.PageOn(0, t0) {
		t0++
	}
	f, err := DecodeFrame(srv.frameFor(0, t0).body())
	if err != nil {
		b.Fatal(err)
	}
	f.Payload = append([]byte(nil), f.Payload...)
	buf := make([]byte, 0, FrameSize(srv.cfg.Spec.Params))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Slot = int64(i)
		buf = AppendFrame(buf[:0], f)
		if _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPreambleRoundTrip(t *testing.T) {
	sp := testSpec(50)
	sp.Scheme = broadcast.SchemeDistributed
	sp.Cut = 1
	sp.OffS, sp.OffR = 17, 91
	sp.WS = make([]float64, len(sp.S))
	for i := range sp.WS {
		sp.WS[i] = float64(i)
	}
	blob := appendPreamble(nil, sp, 3*time.Millisecond, 12345)
	got, dur, live, digest, warm, err := decodePreamble(blob)
	if err != nil {
		t.Fatalf("decodePreamble: %v", err)
	}
	if warm {
		t.Fatal("full preamble decoded as warm")
	}
	if dur != 3*time.Millisecond || live != 12345 {
		t.Fatalf("clock fields: dur %v live %d", dur, live)
	}
	if want := specDigest(appendSpecBody(nil, sp)); digest != want {
		t.Fatalf("digest: %016x, want %016x", digest, want)
	}
	if got.Scheme != sp.Scheme || got.Cut != sp.Cut || got.OffS != 17 || got.OffR != 91 ||
		got.Single != sp.Single || got.Params != sp.Params || got.Region != sp.Region {
		t.Fatalf("spec mismatch: %+v vs %+v", got, sp)
	}
	if len(got.S) != len(sp.S) || len(got.R) != len(sp.R) || len(got.WS) != len(sp.WS) || got.WR != nil {
		t.Fatalf("catalog shape mismatch")
	}
	for i := range sp.S {
		if got.S[i] != sp.S[i] {
			t.Fatalf("S[%d]: %v vs %v (must be exact float64)", i, got.S[i], sp.S[i])
		}
	}
	for i := range sp.WS {
		if got.WS[i] != sp.WS[i] {
			t.Fatalf("WS[%d] mismatch", i)
		}
	}
}

// TestWarmPreambleRoundTrip covers the short resume form: clock header
// and digest echo only, zero catalog bytes.
func TestWarmPreambleRoundTrip(t *testing.T) {
	blob := appendWarmPreamble(nil, 0xDEADBEEFCAFEF00D, 2*time.Millisecond, 777)
	if len(blob) != preambleHeaderSize+4 {
		t.Fatalf("warm preamble is %d bytes, want %d", len(blob), preambleHeaderSize+4)
	}
	sp, dur, live, digest, warm, err := decodePreamble(blob)
	if err != nil {
		t.Fatalf("decodePreamble(warm): %v", err)
	}
	if !warm {
		t.Fatal("warm preamble decoded as full")
	}
	if dur != 2*time.Millisecond || live != 777 || digest != 0xDEADBEEFCAFEF00D {
		t.Fatalf("warm fields: dur %v live %d digest %016x", dur, live, digest)
	}
	if len(sp.S) != 0 || len(sp.R) != 0 {
		t.Fatal("warm preamble carried a catalog")
	}
}

// TestPreambleDigestMismatch: a full preamble whose header digest does not
// match its spec body is rejected even with a valid CRC — the digest is a
// consistency obligation, not a checksum duplicate.
func TestPreambleDigestMismatch(t *testing.T) {
	blob := appendPreamble(nil, testSpec(20), time.Millisecond, 0)
	bad := append([]byte(nil), blob[:len(blob)-4]...)
	bad[preambleHeaderSize-1] ^= 0x01 // last digest byte
	bad = binary.BigEndian.AppendUint32(bad, crc32.Checksum(bad, frameCRC))
	_, _, _, _, _, err := decodePreamble(bad)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != FrameBadField {
		t.Fatalf("digest mismatch: got %v, want FrameBadField", err)
	}
}

func TestPreambleRejectsDamage(t *testing.T) {
	blob := appendPreamble(nil, testSpec(20), time.Millisecond, 0)

	wantFrameError := func(name string, b []byte) {
		t.Helper()
		_, _, _, _, _, err := decodePreamble(b)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: got %v, want *FrameError", name, err)
		}
	}

	wantFrameError("empty", nil)
	wantFrameError("truncated", blob[:len(blob)/2])

	bad := append([]byte(nil), blob...)
	bad[40] ^= 0x08
	wantFrameError("bit flip", bad)

	// Version skew must be reported as such: mutate the version bytes and
	// reseal the CRC so the skew (not the checksum) is the diagnosis.
	skew := append([]byte(nil), blob[:len(blob)-4]...)
	skew[5] = ProtoVersion + 1
	skew = binary.BigEndian.AppendUint32(skew, crc32.Checksum(skew, frameCRC))
	_, _, _, _, _, err := decodePreamble(skew)
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != FrameVersionSkew {
		t.Fatalf("version skew: got %v", err)
	}
}

func TestHelloWakeRoundTrip(t *testing.T) {
	b := appendHello(nil, TransportTCP, 40123, true, 0xAB54A98CEB1F0AD2)
	tr, port, resume, digest, err := decodeHello(b)
	if err != nil || tr != TransportTCP || port != 40123 || !resume || digest != 0xAB54A98CEB1F0AD2 {
		t.Fatalf("hello round trip: %v %v %d %v %016x", err, tr, port, resume, digest)
	}
	if _, _, r2, d2, err := decodeHello(appendHello(nil, TransportUDP, 1, false, 0)); err != nil || r2 || d2 != 0 {
		t.Fatalf("cold hello round trip: %v %v %d", err, r2, d2)
	}
	if _, _, _, _, err := decodeHello(b[:5]); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if itr, iport, ok := InspectHello(b); !ok || itr != TransportTCP || iport != 40123 {
		t.Fatalf("InspectHello: %v %v %d", ok, itr, iport)
	}
	if !RewriteHelloPort(b, 555) {
		t.Fatal("RewriteHelloPort refused a valid hello")
	}
	if _, port, _, _, err := decodeHello(b); err != nil || port != 555 {
		t.Fatalf("rewritten hello: %v %d", err, port)
	}
	b[4] = 0xEE
	if _, _, _, _, err := decodeHello(b); err == nil {
		t.Fatal("version-skewed hello accepted")
	}
	// A protocol-2 peer still seals page images with their own trailer,
	// so its frames are five bytes longer: it must fail the handshake.
	binary.BigEndian.PutUint16(b[4:6], 2)
	var fe *FrameError
	if _, _, _, _, err := decodeHello(b); !errors.As(err, &fe) || fe.Reason != FrameVersionSkew {
		t.Fatalf("protocol-2 hello: got %v, want version skew", err)
	}

	w := appendWake(nil, 1, -77)
	ch, slot, err := decodeWake(w)
	if err != nil || ch != 1 || slot != -77 {
		t.Fatalf("wake round trip: %v %d %d", err, ch, slot)
	}
}

// TestControlOpsRoundTrip covers the v2 control messages: heartbeat
// PING/PONG and the GOODBYE drain notice.
func TestControlOpsRoundTrip(t *testing.T) {
	p := appendPing(nil, 12345)
	if len(p) != pingSize || p[0] != pingOp || binary.BigEndian.Uint64(p[1:]) != 12345 {
		t.Fatalf("ping encoding: %x", p)
	}
	q := appendPong(nil, 12345)
	if len(q) != pongSize || q[0] != pongOp || binary.BigEndian.Uint64(q[1:]) != 12345 {
		t.Fatalf("pong encoding: %x", q)
	}
	g := appendGoodbye(nil, true, 0xFEED)
	resume, digest, err := decodeGoodbye(g)
	if err != nil || !resume || digest != 0xFEED {
		t.Fatalf("goodbye round trip: %v %v %x", err, resume, digest)
	}
	if resume, _, err := decodeGoodbye(appendGoodbye(nil, false, 1)); err != nil || resume {
		t.Fatalf("goodbye no-resume round trip: %v %v", err, resume)
	}
	if _, _, err := decodeGoodbye(g[:3]); err == nil {
		t.Fatal("truncated goodbye accepted")
	}
}

func TestSlotClock(t *testing.T) {
	epoch := time.Unix(1000, 0)
	c := slotClock{epoch: epoch, dur: 2 * time.Millisecond}
	if got := c.slotAt(epoch); got != 0 {
		t.Fatalf("slotAt(epoch) = %d", got)
	}
	if got := c.slotAt(epoch.Add(5 * time.Millisecond)); got != 2 {
		t.Fatalf("slotAt(+5ms) = %d", got)
	}
	if got := c.slotAt(epoch.Add(-time.Millisecond)); got != -1 {
		t.Fatalf("slotAt(-1ms) = %d", got)
	}
	if got := c.at(3); !got.Equal(epoch.Add(6 * time.Millisecond)) {
		t.Fatalf("at(3) = %v", got)
	}
}

// FuzzFrameRoundTrip throws arbitrary bytes at the slot-frame and preamble
// decoders: every outcome must be either a clean decode or a typed error —
// never a panic. Every single-bit flip of a frame that decodes cleanly
// must be rejected (requireFlipsRejected), so no corrupted valid frame is
// ever silently misparsed.
func FuzzFrameRoundTrip(f *testing.F) {
	sp := testSpec(20)
	f.Add(AppendFrame(nil, Frame{Channel: 1, Kind: broadcast.DataPage, Slot: 99, Ref: 5, Seq: 1, Payload: make([]byte, 66)}), true)
	f.Add(appendPreamble(nil, sp, time.Millisecond, 42), false)
	f.Add(appendWarmPreamble(nil, specDigest(appendSpecBody(nil, sp)), time.Millisecond, 42), false)
	f.Add([]byte{FrameMagic, FrameVersion}, true)
	f.Add([]byte("TNNP"), false)
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, data []byte, asFrame bool) {
		if asFrame {
			fr, err := DecodeFrame(data)
			if err != nil {
				var fe *FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("DecodeFrame returned untyped error %T: %v", err, err)
				}
				return
			}
			// A clean decode must re-encode to the identical bytes: the
			// frame layer is bijective on valid frames.
			if got := AppendFrame(nil, fr); string(got) != string(data) {
				t.Fatalf("valid frame did not round-trip: %d bytes vs %d", len(got), len(data))
			}
			requireFlipsRejected(t, data, fr)
			return
		}
		spec, dur, _, _, warm, err := decodePreamble(data)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) && !isBroadcastConfigErr(err) {
				t.Fatalf("decodePreamble returned untyped error %T: %v", err, err)
			}
			return
		}
		if warm {
			if dur <= 0 {
				t.Fatal("accepted warm preamble with non-positive slot duration")
			}
			return
		}
		// An accepted preamble must satisfy the same invariants New
		// enforces — buildable without panicking.
		if dur <= 0 {
			t.Fatal("accepted preamble with non-positive slot duration")
		}
		if err := spec.Params.ValidateFor(len(spec.S)); err != nil {
			t.Fatalf("accepted preamble with invalid params: %v", err)
		}
		for _, p := range append(append([]geom.Point(nil), spec.S...), spec.R...) {
			if !p.Finite() {
				t.Fatal("accepted preamble with non-finite point")
			}
		}
	})
}

// isBroadcastConfigErr reports whether err came from the broadcast layer's
// parameter validation (reused by the preamble decoder).
func isBroadcastConfigErr(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "broadcast:")
}
