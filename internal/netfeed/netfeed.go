// Package netfeed puts the broadcast channels on a real wire: a Server
// replays a built broadcast program onto sockets — one frame per slot,
// paced by a configurable slot duration, looping the cycle indefinitely —
// and a client Conn implements the broadcast.Feed interface over the
// network, so every TNN algorithm, the Cursor/Events API, and the session
// engine run unmodified against live packets.
//
// # Transport model
//
// A client connects over TCP and receives the PREAMBLE: the broadcast
// geometry (page parameters, index scheme, phase offsets, service region)
// plus the dataset coordinates, from which it reconstructs the air index
// locally — the networked counterpart of a receiver that has acquired the
// index and, from then on, needs the wire only for receptions. All
// schedule-truth queries (PageAt, arrival times) are answered from that
// local reconstruction; what travels per slot is the RECEPTION: a frame
// carrying the slot-clock header and the wire-format page image, sealed by
// the frame's CRC32C trailer.
//
// The medium is broadcast, but a real receiver powers its radio only
// during scheduled slots. netfeed models the doze/wake NIC schedule
// explicitly: the client announces each slot it will be awake for (a WAKE
// message on the TCP control stream — the subscription is the NIC
// schedule), and the server transmits a slot's frame only to the clients
// awake for it, at that slot's time, never earlier. A WAKE for a slot
// that already went on air is answered from the modeled reception buffer:
// the frame is a pure function of (config, channel, slot), and a query's
// virtual timeline legitimately lags wall time whenever the query
// executor serializes the two channels' downloads.
// Between receptions the client is genuinely asleep: blocked, not reading,
// so bytes read off the socket equal tune-in × frame size — the paper's
// energy proxy measured on a real socket. Frames are carried as UDP
// datagrams (unicast fan-out) or, as a fallback for UDP-hostile paths, as
// length-prefixed segments on the TCP stream itself.
//
// # Loss and recovery
//
// A datagram that never arrives (or arrives damaged) surfaces exactly like
// the fault-injection layer's faults: the blocked reception times out (or
// fails its CRC) and returns a typed *broadcast.PageFault, the client
// re-derives the page's next broadcast arrival from its local air index,
// and re-enters its doze/wake wait — the recovery protocol and loss-aware
// accounting of the resilience layer, driven by real packet loss instead
// of injected faults. The server can additionally inject deterministic
// faults (the same (seed, slot)-pure model the in-process FaultFeed uses)
// so lossy runs are reproducible and comparable against the simulation.
//
// netfeed is the repo's second sanctioned wall-clock chokepoint (after
// internal/observe): the slot clock maps broadcast slots to wall time, so
// the package is deliberately NOT //tnn:deterministic — it is marked
// //tnn:wallclock, and the nowallclock analyzer enforces that the two
// directives never meet in one package. Everything above the clock (frame
// and preamble codecs, fault patterns, the schedule rebuild) remains a
// pure function of its inputs and is differentially tested against the
// in-process feeds.
//
//tnn:wallclock
package netfeed

import (
	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/geom"
)

// ProtoVersion is the netfeed protocol version, carried in the HELLO and
// PREAMBLE. Decoders reject any other version loudly (FrameVersionSkew)
// rather than misparse. Version 2 added warm-resume digests to the
// handshake, heartbeats, and the GOODBYE drain notice. Version 3 dropped
// the page images' own version byte and CRC32C trailer, which shrinks
// every frame by five bytes: a version-2 peer must fail the handshake
// rather than miscount frame sizes.
const ProtoVersion = 3

// Spec describes one broadcast service completely enough for a client to
// reconstruct the air schedule bit-for-bit: the physical page parameters,
// the index family, the phase offsets, the service region, and the dataset
// coordinates (exact float64 — the model's air index is exact, so the
// catalog that ships it must be too). It is what the PREAMBLE serializes.
type Spec struct {
	// Params are the physical page parameters of both channels.
	Params broadcast.Params
	// Scheme selects the air-index family.
	Scheme broadcast.SchemeID
	// Cut is the distributed index's replicated-level count (0 = auto).
	Cut int
	// SkewDisks/SkewRatio configure a skewed broadcast-disks data
	// schedule; SkewDisks == 0 selects the flat schedule.
	SkewDisks, SkewRatio int
	// Single multiplexes both datasets on ONE physical channel.
	Single bool
	// OffS and OffR are the channels' phase offsets (under Single, OffS
	// applies to the combined cycle and OffR is ignored).
	OffS, OffR int64
	// Region is the service region (Approximate-TNN's radius scale).
	Region geom.Rect
	// S and R are the two datasets.
	S, R []geom.Point
	// WS and WR are optional per-object access weights (nil = uniform).
	WS, WR []float64
}

// check runs New's admission check, broadcast.Check, on the spec under the
// fault model, and returns the AirSpec it admits. A preamble always has a
// region, and 0 disks mean the flat schedule. A refusal is a FrameBadField,
// or the page parameters' or fault model's own error.
func (sp *Spec) check(faults broadcast.FaultModel) (broadcast.AirSpec, error) {
	air := broadcast.AirSpec{
		Params: sp.Params, Scheme: sp.Scheme, Cut: sp.Cut,
		SkewDisks: sp.SkewDisks, SkewRatio: sp.SkewRatio,
		Phases:  [2]int64{sp.OffS, sp.OffR},
		Weights: [2][]float64{sp.WS, sp.WR},
		Single:  sp.Single,
		Faults:  faults,
	}
	switch rej := broadcast.Check([][]geom.Point{sp.S, sp.R}, &air, &sp.Region, sp.SkewDisks != 0); {
	case rej == nil:
		return air, nil
	case rej.Err != nil:
		return air, rej.Err
	default:
		return air, &FrameError{Part: "preamble", Reason: FrameBadField, Got: int(rej.Value)}
	}
}

// build checks the spec and puts it on the air under the fault model,
// through the builder New uses: server and client rebuild New's schedule
// page for page. BuildAir also refuses a cycle over 2³¹-1 slots.
func (sp *Spec) build(faults broadcast.FaultModel) (*broadcast.Air, error) {
	air, err := sp.check(faults)
	if err != nil {
		return nil, err
	}
	return broadcast.BuildAir([][]geom.Point{sp.S, sp.R}, air)
}
