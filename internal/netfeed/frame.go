package netfeed

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"tnnbcast/internal/broadcast"
)

// Frame layer: one broadcast slot on the wire. A frame is the unit a
// receiver's radio sees — a slot-clock header naming the channel, the
// absolute slot, and the page identity, followed by the page image (the
// broadcast wire layout for index pages; deterministic filler for data
// pages), sealed with a CRC32C trailer over everything before it. UDP
// carries one frame per datagram; the TCP fallback length-prefixes the
// same bytes.
//
// Frame layout (header is FrameHeaderSize bytes, fixed):
//
//	[0]     magic 0xB7
//	[1]     frame format version (FrameVersion)
//	[2]     physical channel ID
//	[3]     page kind (0 index, 1 data)
//	[4:12]  absolute slot, big-endian int64 — the slot clock
//	[12:16] page ref: R-tree node ID (index) or object ID (data)
//	[16:18] data fragment number (0 for index pages)
//	[18:20] payload length in bytes
//	[20:..] payload
//	[..+4]  CRC32C (Castagnoli, big-endian) of header + payload
//
// The trailer is the one integrity check on the wire: page images carry
// no checksum of their own. A receiver treats a checksum mismatch as a
// damaged page — a *broadcast.PageFault of kind FaultCorrupt, energy
// spent, content discarded — while truncation, a foreign magic byte, or a
// version skew are protocol errors (*FrameError) that can never be
// mistaken for a valid reception. CRC32C detects every 1- and 2-bit error
// at these frame sizes, so every single-bit flip of a frame is rejected.

// FrameMagic is the first byte of every frame.
const FrameMagic = 0xB7

// FrameVersion is the frame format version, carried in the second byte.
const FrameVersion = 1

// FrameHeaderSize is the fixed slot-clock header size in bytes.
const FrameHeaderSize = 20

// FrameTrailerSize is the CRC32C trailer size in bytes.
const FrameTrailerSize = 4

// frameCRC is the Castagnoli table shared by frames and the preamble.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded slot transmission.
type Frame struct {
	// Channel is the physical channel the slot belongs to.
	Channel uint8
	// Kind is the page kind on air during the slot.
	Kind broadcast.PageKind
	// Slot is the absolute slot number — the slot clock.
	Slot int64
	// Ref identifies the page: the R-tree node ID for index pages, the
	// object ID for data pages.
	Ref uint32
	// Seq is the data fragment number within the object (0 for index).
	Seq uint16
	// Payload is the page image.
	Payload []byte
}

// FrameSize returns the on-wire size of a frame carrying a standard page
// image for the given parameters: every slot of one service transmits
// frames of exactly this size, index and data alike.
func FrameSize(p broadcast.Params) int {
	return FrameHeaderSize + broadcast.PageImageSize(p) + FrameTrailerSize
}

// AppendFrame serializes f onto dst and returns the extended slice.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	var kind byte
	if f.Kind == broadcast.DataPage {
		kind = 1
	}
	dst = append(dst, FrameMagic, FrameVersion, f.Channel, kind)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Slot))
	dst = binary.BigEndian.AppendUint32(dst, f.Ref)
	dst = binary.BigEndian.AppendUint16(dst, f.Seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], frameCRC))
}

// DecodeFrame parses one frame. Structural damage — truncation, a foreign
// magic byte, a version skew, a length field overrunning the buffer —
// returns a typed *FrameError; a structurally sound frame whose CRC32C
// trailer does not verify returns the frame header fields it claims
// (attribution for the fault accounting) together with a *FrameError of
// reason FrameChecksum. The payload of a checksum-failed frame must be
// treated as a FaultCorrupt reception, never as content.
func DecodeFrame(buf []byte) (Frame, error) {
	if len(buf) < FrameHeaderSize+FrameTrailerSize {
		return Frame{}, &FrameError{Part: "frame", Reason: FrameTruncated, Got: len(buf), Want: FrameHeaderSize + FrameTrailerSize}
	}
	if buf[0] != FrameMagic {
		return Frame{}, &FrameError{Part: "frame", Reason: FrameBadMagic, Got: int(buf[0]), Want: FrameMagic}
	}
	if buf[1] != FrameVersion {
		return Frame{}, &FrameError{Part: "frame", Reason: FrameVersionSkew, Got: int(buf[1]), Want: FrameVersion}
	}
	if buf[3] > 1 {
		return Frame{}, &FrameError{Part: "frame", Reason: FrameBadField, Got: int(buf[3]), Want: 1}
	}
	n := int(binary.BigEndian.Uint16(buf[18:20]))
	if FrameHeaderSize+n+FrameTrailerSize != len(buf) {
		return Frame{}, &FrameError{Part: "frame", Reason: FrameBadLength, Got: len(buf), Want: FrameHeaderSize + n + FrameTrailerSize}
	}
	f := Frame{
		Channel: buf[2],
		Kind:    broadcast.IndexPage,
		Slot:    int64(binary.BigEndian.Uint64(buf[4:12])),
		Ref:     binary.BigEndian.Uint32(buf[12:16]),
		Seq:     binary.BigEndian.Uint16(buf[16:18]),
		Payload: buf[FrameHeaderSize : FrameHeaderSize+n],
	}
	if buf[3] == 1 {
		f.Kind = broadcast.DataPage
	}
	body, trailer := buf[:len(buf)-FrameTrailerSize], buf[len(buf)-FrameTrailerSize:]
	if got, want := crc32.Checksum(body, frameCRC), binary.BigEndian.Uint32(trailer); got != want {
		return f, &FrameError{Part: "frame", Reason: FrameChecksum, Got: int(got), Want: int(want)}
	}
	return f, nil
}

// FrameErrorReason classifies a frame/preamble/control decoding failure.
type FrameErrorReason int

const (
	// FrameTruncated: the buffer is shorter than the fixed layout.
	FrameTruncated FrameErrorReason = iota
	// FrameBadMagic: the magic byte is not this protocol's.
	FrameBadMagic
	// FrameVersionSkew: the format version is not the decoder's.
	FrameVersionSkew
	// FrameBadLength: a length field contradicts the buffer size.
	FrameBadLength
	// FrameChecksum: the CRC32C trailer did not verify.
	FrameChecksum
	// FrameBadField: a field value is outside its domain.
	FrameBadField
)

func (r FrameErrorReason) String() string {
	switch r {
	case FrameTruncated:
		return "truncated"
	case FrameBadMagic:
		return "bad magic"
	case FrameVersionSkew:
		return "version skew"
	case FrameBadLength:
		return "bad length"
	case FrameChecksum:
		return "checksum mismatch"
	case FrameBadField:
		return "field out of domain"
	default:
		return fmt.Sprintf("FrameErrorReason(%d)", int(r))
	}
}

// FrameError reports a malformed frame, preamble, or control message. It
// is a protocol error, distinct from a page fault: a FrameChecksum on a
// data frame is accounted as a corrupt reception by the feed layer, while
// every other reason means the peer speaks a different protocol.
type FrameError struct {
	// Part names the message family: "frame", "preamble", or "hello".
	Part string
	// Reason classifies the defect.
	Reason FrameErrorReason
	// Got and Want detail the mismatch (sizes, versions, or checksums,
	// depending on Reason).
	Got, Want int
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("netfeed: %s %s (got %d, want %d)", e.Part, e.Reason, e.Got, e.Want)
}

// dataPayload fills dst with the deterministic filler content of one data
// page: a pure function of (objectID, fragment), so any receiver can
// verify a data reception byte-for-byte. Real deployments would carry
// object attributes here; the reproduction carries recognizable filler of
// exactly the page-image size.
func dataPayload(dst []byte, objectID uint32, seq uint16) []byte {
	x := splitmix64(uint64(objectID)<<16 | uint64(seq))
	for i := 0; i < len(dst); i += 8 {
		x = splitmix64(x)
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(x >> (8 * j))
		}
	}
	return dst
}

// splitmix64 is the standard SplitMix64 finalizer (same construction the
// fault layer uses for its (seed, slot)-pure streams).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
