package netfeed

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"time"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
)

// Preamble codec. At connect time the server sends one PREAMBLE blob over
// the TCP control stream: everything a client needs to reconstruct the air
// schedule locally (Spec), plus the live slot clock (slot duration and the
// slot currently on air). It is the networked analogue of index
// acquisition — after the preamble, the client answers every schedule
// question itself and uses the wire only for receptions.
//
// Layout (all integers big-endian):
//
//	header:
//	[4]  magic "TNNP"
//	[2]  protocol version (ProtoVersion)
//	[1]  flags (bit 0: warm resume — no spec body follows)
//	[8]  slot duration, nanoseconds
//	[8]  live slot at send time
//	[8]  spec digest (FNV-1a 64 of the spec body bytes)
//
//	spec body (full preamble only; the digest keys the warm-resume cache):
//	[1]  spec flags (bit 0: single-channel multiplexing)
//	[20] params: PageCap, PtrSize, CoordSize, DataSize, M (int32 each)
//	[1]  index scheme (broadcast.SchemeID)
//	[12] cut, skew disks, skew ratio (int32 each)
//	[16] phase offsets offS, offR (int64 each)
//	[32] service region Lo.X, Lo.Y, Hi.X, Hi.Y (float64 each)
//	[4]  nS, then nS × 16 bytes of float64 (X, Y)
//	[4]  nR, then nR × 16 bytes
//	[1]  WS present? then nS × 8 bytes of float64 weights
//	[1]  WR present? then nR × 8 bytes
//
//	[4]  CRC32C (Castagnoli) of everything above
//
// Coordinates and weights travel as exact float64 bits: the model's air
// index is exact, so the catalog that ships it must be too — this is what
// makes remote metrics bit-identical to the in-process simulation.
//
// The spec digest is the warm-resume key: a reconnecting client sends the
// digest of its cached preamble in the HELLO, and a server whose live
// broadcast still has that digest answers with the 39-byte warm form —
// header only, no dataset catalog — so the client re-anchors its slot
// clock and keeps its rebuilt trees and programs. A digest mismatch gets
// the full preamble, which a resuming client rejects as a spec change.

// preambleMagic opens every preamble blob.
var preambleMagic = [4]byte{'T', 'N', 'N', 'P'}

// preambleMax bounds the accepted blob size (datasets up to ~2M points);
// the length prefix is checked against it before any allocation.
const preambleMax = 64 << 20

// preambleHeaderSize is the fixed header before the optional spec body.
const preambleHeaderSize = 4 + 2 + 1 + 8 + 8 + 8

// preambleFlagWarm marks the short warm-resume form: header + CRC, no
// spec body — zero catalog bytes on the wire.
const preambleFlagWarm = 1

// specDigest is the warm-resume cache key: FNV-1a 64 over the canonical
// spec body encoding. Both sides compute it from the same bytes — the
// server from the body it serializes, the client from the body it
// receives — so equality means "bit-identical broadcast schedule".
func specDigest(body []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range body {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// appendSpecBody serializes the digestible spec portion of the preamble.
func appendSpecBody(dst []byte, sp Spec) []byte {
	var flags byte
	if sp.Single {
		flags |= 1
	}
	dst = append(dst, flags)
	for _, v := range [...]int{sp.Params.PageCap, sp.Params.PtrSize, sp.Params.CoordSize, sp.Params.DataSize, sp.Params.M} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(v)))
	}
	dst = append(dst, byte(sp.Scheme))
	for _, v := range [...]int{sp.Cut, sp.SkewDisks, sp.SkewRatio} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(v)))
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(sp.OffS))
	dst = binary.BigEndian.AppendUint64(dst, uint64(sp.OffR))
	for _, v := range [...]float64{sp.Region.Lo.X, sp.Region.Lo.Y, sp.Region.Hi.X, sp.Region.Hi.Y} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = appendPoints(dst, sp.S)
	dst = appendPoints(dst, sp.R)
	dst = appendWeights(dst, sp.WS)
	dst = appendWeights(dst, sp.WR)
	return dst
}

// appendPreambleHeader serializes the fixed header shared by both forms.
func appendPreambleHeader(dst []byte, warm bool, digest uint64, slotDur time.Duration, liveSlot int64) []byte {
	dst = append(dst, preambleMagic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, ProtoVersion)
	var flags byte
	if warm {
		flags |= preambleFlagWarm
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(slotDur))
	dst = binary.BigEndian.AppendUint64(dst, uint64(liveSlot))
	return binary.BigEndian.AppendUint64(dst, digest)
}

// appendPreambleParts seals header + precomputed spec body into one full
// preamble blob. The server serializes the body once at build time and
// reuses it for every connecting client.
func appendPreambleParts(dst []byte, body []byte, digest uint64, slotDur time.Duration, liveSlot int64) []byte {
	start := len(dst)
	dst = appendPreambleHeader(dst, false, digest, slotDur, liveSlot)
	dst = append(dst, body...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], frameCRC))
}

// appendPreamble serializes the full preamble for sp (test/convenience
// form of appendPreambleParts).
func appendPreamble(dst []byte, sp Spec, slotDur time.Duration, liveSlot int64) []byte {
	body := appendSpecBody(nil, sp)
	return appendPreambleParts(dst, body, specDigest(body), slotDur, liveSlot)
}

// appendWarmPreamble serializes the warm-resume form: the clock header
// and the digest echo, zero catalog bytes.
func appendWarmPreamble(dst []byte, digest uint64, slotDur time.Duration, liveSlot int64) []byte {
	start := len(dst)
	dst = appendPreambleHeader(dst, true, digest, slotDur, liveSlot)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], frameCRC))
}

func appendPoints(dst []byte, pts []geom.Point) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(pts)))
	for _, p := range pts {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.X))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Y))
	}
	return dst
}

func appendWeights(dst []byte, w []float64) []byte {
	if w == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	for _, v := range w {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// preambleReader walks a blob with running truncation checks, so every
// field read is bounds-safe against hostile input.
type preambleReader struct {
	buf []byte
	off int
	err error
}

func (r *preambleReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = &FrameError{Part: "preamble", Reason: FrameTruncated, Got: len(r.buf), Want: r.off + n}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *preambleReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *preambleReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *preambleReader) i32() int {
	if b := r.take(4); b != nil {
		return int(int32(binary.BigEndian.Uint32(b)))
	}
	return 0
}

func (r *preambleReader) i64() int64 {
	if b := r.take(8); b != nil {
		return int64(binary.BigEndian.Uint64(b))
	}
	return 0
}

func (r *preambleReader) f64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

func (r *preambleReader) points() []geom.Point {
	n := r.i32()
	if r.err != nil || n < 0 || r.off+16*n > len(r.buf) {
		if r.err == nil {
			r.err = &FrameError{Part: "preamble", Reason: FrameBadLength, Got: n, Want: (len(r.buf) - r.off) / 16}
		}
		return nil
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.f64(), r.f64())
	}
	return pts
}

func (r *preambleReader) weights(n int) []float64 {
	switch r.u8() {
	case 0:
		return nil
	case 1:
		if r.err != nil || r.off+8*n > len(r.buf) {
			if r.err == nil {
				r.err = &FrameError{Part: "preamble", Reason: FrameTruncated, Got: len(r.buf), Want: r.off + 8*n}
			}
			return nil
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = r.f64()
		}
		return w
	default:
		if r.err == nil {
			r.err = &FrameError{Part: "preamble", Reason: FrameBadField, Got: int(r.buf[r.off-1]), Want: 1}
		}
		return nil
	}
}

// decodePreamble parses and validates one blob. The input is hostile:
// every structural defect returns a typed *FrameError, and the decoded
// spec must pass the same checks New applies (Spec.check) before any
// schedule is built from it; only the cycle bound waits for the build.
// A warm-form blob (flags bit 0) carries no spec body: sp is
// returned zero and warm is true — the caller resumes against its cached
// schedule iff the digest matches the cached one.
func decodePreamble(buf []byte) (sp Spec, slotDur time.Duration, liveSlot int64, digest uint64, warm bool, err error) {
	if len(buf) < preambleHeaderSize+4 {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameTruncated, Got: len(buf), Want: preambleHeaderSize + 4}
	}
	payload, trailer := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(payload, frameCRC), binary.BigEndian.Uint32(trailer); got != want {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameChecksum, Got: int(got), Want: int(want)}
	}
	r := &preambleReader{buf: payload}
	if magic := r.take(4); r.err == nil && string(magic) != string(preambleMagic[:]) {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadMagic, Got: int(magic[0]), Want: int(preambleMagic[0])}
	}
	if v := r.u16(); r.err == nil && v != ProtoVersion {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameVersionSkew, Got: int(v), Want: ProtoVersion}
	}
	flags := r.u8()
	if flags > preambleFlagWarm {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadField, Got: int(flags), Want: preambleFlagWarm}
	}
	warm = flags&preambleFlagWarm != 0
	slotDur = time.Duration(r.i64())
	liveSlot = r.i64()
	digest = uint64(r.i64())
	if slotDur <= 0 {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadField, Got: int(slotDur), Want: 1}
	}
	if warm {
		if r.off != len(payload) {
			return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadLength, Got: len(payload), Want: r.off}
		}
		return Spec{}, slotDur, liveSlot, digest, true, nil
	}
	specBody := payload[preambleHeaderSize:]
	if got := specDigest(specBody); got != digest {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadField, Got: int(uint32(got)), Want: int(uint32(digest))}
	}
	specFlags := r.u8()
	if specFlags > 1 {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadField, Got: int(specFlags), Want: 1}
	}
	sp.Single = specFlags&1 != 0
	sp.Params = broadcast.Params{
		PageCap: r.i32(), PtrSize: r.i32(), CoordSize: r.i32(),
		DataSize: r.i32(), M: r.i32(),
	}
	sp.Scheme = broadcast.SchemeID(r.u8())
	sp.Cut = r.i32()
	sp.SkewDisks = r.i32()
	sp.SkewRatio = r.i32()
	sp.OffS = r.i64()
	sp.OffR = r.i64()
	sp.Region = geom.Rect{Lo: geom.Pt(r.f64(), r.f64()), Hi: geom.Pt(r.f64(), r.f64())}
	sp.S = r.points()
	sp.R = r.points()
	sp.WS = r.weights(len(sp.S))
	sp.WR = r.weights(len(sp.R))
	if r.err != nil {
		return Spec{}, 0, 0, 0, false, r.err
	}
	if r.off != len(payload) {
		return Spec{}, 0, 0, 0, false, &FrameError{Part: "preamble", Reason: FrameBadLength, Got: len(payload), Want: r.off}
	}
	if _, err := sp.check(broadcast.FaultModel{}); err != nil {
		return Spec{}, 0, 0, 0, false, err
	}
	return sp, slotDur, liveSlot, digest, false, nil
}
