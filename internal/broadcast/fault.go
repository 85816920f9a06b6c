package broadcast

import (
	"fmt"
	"math"

	"tnnbcast/internal/rtree"
)

// Lossy-air fault injection. A real broadcast medium drops and corrupts
// pages; every feed in the simulation is otherwise a perfect oracle. The
// FaultFeed decorator injects deterministic, seeded faults into any Feed so
// that recovery protocols can be exercised — and measured — without a
// radio.
//
// Determinism is the load-bearing property: a fault is a pure function of
// (seed, slot). The broadcast medium is shared, so a lost slot is lost for
// EVERY listener identically, which is exactly what makes multi-client
// results worker-count invariant under loss — the fault pattern is part of
// the channel, not of any client's private randomness. It also makes a
// FaultFeed stateless and therefore safe to share across goroutines.
// A wrapper that is not shared may keep a lossMark of its own — the last
// slot it evaluated and the chain state there — which bounds the next
// evaluation's backward scan but never changes its answer, since that
// state is itself a pure function of (seed, slot). MemoFeed is that
// wrapper: the mark is all it keeps, and it caches no fault.

// FaultKind classifies a page fault.
type FaultKind int

const (
	// FaultLost models a page that never reached the receiver (fade,
	// collision, tune-in missed the preamble).
	FaultLost FaultKind = iota
	// FaultCorrupt models a page that arrived but failed its frame's
	// CRC32C check: the receiver burned the energy to download it,
	// detected the damage, and must discard it.
	FaultCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultLost:
		return "lost"
	case FaultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// PageFault reports one failed page reception. It is returned (not
// panicked) by the fault-aware read paths so clients can re-derive the
// page's next arrival and retry.
type PageFault struct {
	// Slot is the channel slot whose page was lost or corrupted.
	Slot int64
	// Kind says whether the page was lost outright or received damaged.
	Kind FaultKind
}

// Error implements error.
func (f *PageFault) Error() string {
	return fmt.Sprintf("broadcast: page at slot %d %s", f.Slot, f.Kind)
}

// ChannelError is the escalation of repeated page faults: a client that
// failed MaxRetries consecutive receptions on one channel gives up on the
// query rather than waiting forever on a dead medium.
type ChannelError struct {
	// Channel names the failing feed ("S" or "R" in two-channel
	// environments, "ch0"… for chains).
	Channel string
	// Attempts is the number of consecutive failed receptions.
	Attempts int
	// Last is the final fault that triggered the escalation.
	Last *PageFault
}

// Error implements error.
func (e *ChannelError) Error() string {
	return fmt.Sprintf("broadcast: channel %s failed %d consecutive receptions (last: %v)",
		e.Channel, e.Attempts, e.Last)
}

// Unwrap exposes the final PageFault to errors.Is/As chains.
func (e *ChannelError) Unwrap() error { return e.Last }

// FaultModel parameterizes the injected faults. The zero value is the
// perfect channel (Enabled() == false).
type FaultModel struct {
	// Loss is the long-run page loss probability in [0, 1).
	Loss float64
	// Burst is the mean loss-burst length in pages. Burst <= 1 selects
	// i.i.d. (Bernoulli) loss; Burst > 1 selects a Gilbert–Elliott
	// two-state chain whose bad-state dwell time averages Burst pages
	// while the stationary loss rate stays exactly Loss.
	Burst float64
	// Corrupt is the per-page probability, independent of loss, that a
	// delivered page fails its checksum in [0, 1). The receiver pays the
	// tune-in (it downloaded the page) but must discard it.
	Corrupt float64
	// Seed seeds the deterministic fault pattern. Two feeds with the
	// same model and seed fault at identical slots.
	Seed uint64
}

// Enabled reports whether the model injects any faults.
func (m FaultModel) Enabled() bool { return m.Loss > 0 || m.Corrupt > 0 }

// Validate rejects probabilities outside [0, 1) and non-finite bursts.
func (m FaultModel) Validate() error {
	if !(m.Loss >= 0 && m.Loss < 1) {
		return fmt.Errorf("broadcast: fault loss rate %v outside [0, 1)", m.Loss)
	}
	if !(m.Corrupt >= 0 && m.Corrupt < 1) {
		return fmt.Errorf("broadcast: fault corruption rate %v outside [0, 1)", m.Corrupt)
	}
	if !(m.Burst >= 0 && m.Burst < 1e9) {
		return fmt.Errorf("broadcast: fault burst length %v invalid", m.Burst)
	}
	return nil
}

// WithSeed returns a copy of the model reseeded for one physical channel.
// Multi-channel systems derive independent per-channel patterns from one
// user-facing seed with DeriveFaultSeed.
func (m FaultModel) WithSeed(seed uint64) FaultModel {
	m.Seed = seed
	return m
}

// DeriveFaultSeed derives the fault seed of physical channel `channel`
// from a system-wide seed. Distinct channels get decorrelated streams;
// the derivation is fixed so results are reproducible from the one seed.
func DeriveFaultSeed(seed, channel uint64) uint64 {
	return splitmix64(seed ^ splitmix64(channel+0x51ab_e1ed))
}

// geBlock is the renewal block length of the Gilbert–Elliott chain. The
// chain state is re-drawn from its stationary distribution at every block
// boundary and iterated forward within the block, making the state of ANY
// slot a function of (seed, slot) alone — random access into a Markov
// sample path. lost evaluates it by scanning back from the slot to the
// last transition that forces the state whatever the state before it, so
// its expected cost is about 1/|pBG−pGB| hashes (≈8 at 1% loss in bursts
// of 8), and O(geBlock) in the worst case, when no slot of the block
// forces its state. Given a lossMark earlier in the same block, the scan
// also stops at the mark, so a caller stepping forward through a block
// pays about the gap since its previous evaluation instead. Bursts in
// progress at a boundary may be cut short;
// with blocks much longer than realistic bursts the stationary loss rate
// and mean burst length are preserved to well under a percent.
const geBlock = 64

// FaultFeed decorates an inner Feed with seeded page faults. All
// schedule-truth queries (PageAt, arrivals) pass through unchanged — the
// broadcast program is intact; only receptions fail. ReadNode and Fault
// report the injected faults. A FaultFeed holds no mutable state and is
// safe for concurrent use if its inner feed is.
type FaultFeed struct {
	inner Feed
	model FaultModel
	// Gilbert–Elliott transition probabilities, precomputed:
	// pBG leaves the bad (lossy) state, pGB enters it.
	pBG, pGB float64
	// The draws' thresholds, from func below: hash h's draw falls under
	// the loss rate exactly when h>>11 < loss, and likewise for the
	// corruption rate, pGB and pBG.
	loss, corrupt, gb, bg uint64
}

// NewFaultFeed wraps f with the model's fault pattern. The model must
// Validate; a disabled model is accepted (the wrapper injects nothing).
func NewFaultFeed(f Feed, m FaultModel) *FaultFeed {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	ff := &FaultFeed{inner: f, model: m}
	if m.Burst > 1 && m.Loss > 0 {
		// Stationary bad probability pGB/(pGB+pBG) == Loss with mean bad
		// dwell 1/pBG == Burst.
		ff.pBG = 1 / m.Burst
		ff.pGB = ff.pBG * m.Loss / (1 - m.Loss)
	}
	ff.loss, ff.corrupt = below(m.Loss), below(m.Corrupt)
	ff.gb, ff.bg = below(ff.pGB), below(ff.pBG)
	return ff
}

// below returns the threshold of probability p: u01(h) < p exactly when
// h>>11 < below(p). u01(h) is the integer h>>11 times 2⁻⁵³, and p·2⁵³ is
// exact, so the draw is under p exactly when h>>11 < p·2⁵³, that is when
// h>>11 < ⌈p·2⁵³⌉. Every h>>11 is below 2⁵³, so the threshold is clamped
// there: pGB exceeds 1 when Loss >= 0.5.
func below(p float64) uint64 {
	return uint64(min(math.Ceil(p*0x1p53), 0x1p53))
}

// FaultFeed implements Feed.
var _ Feed = (*FaultFeed)(nil)

// Index implements Feed.
func (ff *FaultFeed) Index() AirIndex { return ff.inner.Index() }

// PageAt implements Feed. Page descriptors are schedule truth — what the
// transmitter put on air — and are never faulted; only receptions are.
func (ff *FaultFeed) PageAt(t int64) Page { return ff.inner.PageAt(t) }

// NextNodeArrival implements Feed.
func (ff *FaultFeed) NextNodeArrival(nodeID int, after int64) int64 {
	return ff.inner.NextNodeArrival(nodeID, after)
}

// NextRootArrival implements Feed.
func (ff *FaultFeed) NextRootArrival(after int64) int64 {
	return ff.inner.NextRootArrival(after)
}

// NextObjectArrival implements Feed.
func (ff *FaultFeed) NextObjectArrival(objectID int, after int64) int64 {
	return ff.inner.NextObjectArrival(objectID, after)
}

// ReadNode implements Feed: a faulted slot returns the fault instead of
// the node; the inner feed's slot-kind panic contract is unchanged for
// clean slots.
func (ff *FaultFeed) ReadNode(t int64) (*rtree.Node, *PageFault) {
	if pf := ff.Fault(t); pf != nil {
		return nil, pf
	}
	return ff.inner.ReadNode(t)
}

// Fault implements Feed: it reports the deterministic fault injected at
// slot t, or nil for a clean reception. Loss is checked before
// corruption — a page that never arrived cannot fail its checksum.
func (ff *FaultFeed) Fault(t int64) *PageFault {
	var mk lossMark
	return ff.fault(t, &mk)
}

// fault is Fault with the loss evaluation bounded by, and advancing, mk.
func (ff *FaultFeed) fault(t int64, mk *lossMark) *PageFault {
	m := ff.model
	if m.Loss > 0 && ff.lostMarked(t, mk) {
		return &PageFault{Slot: t, Kind: FaultLost}
	}
	if m.Corrupt > 0 && ff.hash(t, saltCorrupt)>>11 < ff.corrupt {
		return &PageFault{Slot: t, Kind: FaultCorrupt}
	}
	return nil
}

// lossMark is one evaluated point of a Gilbert–Elliott sample path: the
// chain state at slot, after slot's transition (the boundary draw when
// slot starts a block). The zero value holds no point. A mark belongs to
// one non-concurrent caller, never to the shared FaultFeed.
type lossMark struct {
	slot int64
	bad  bool
	set  bool
}

// lostMarked evaluates the loss process at slot t, scanning back no
// further than mk when mk lies in t's block at or before t, and then
// moves mk to t. The state at any slot is a pure function of (seed,
// slot), so the answer is the same whatever order the calls come in.
func (ff *FaultFeed) lostMarked(t int64, mk *lossMark) bool {
	if ff.model.Burst <= 1 {
		return ff.hash(t, saltLoss)>>11 < ff.loss
	}
	// Gilbert–Elliott with block renewal: the state at the block boundary
	// b is drawn from the stationary distribution, and the transition at
	// each slot s in (b, t] is keyed by s, so every slot in the block
	// agrees on the shared sample path. Slot s's draw u moves a good state
	// to fromGood and a bad one to fromBad. When the two agree, the state
	// at s is forced whatever came before; otherwise s either keeps the
	// state (fromBad) or flips it (fromGood). So the scan runs backward
	// from t to the latest forcing slot, or to the mark, or to the
	// boundary draw, and returns that state XOR the parity of the flips
	// after it — the same value the forward iteration from b reaches.
	b := t - floorMod(t, geBlock)
	marked := mk.set && mk.slot >= b && mk.slot <= t
	stop := b
	if marked {
		stop = mk.slot
	}
	flip := false
	for s := t; s > stop; s-- {
		u := ff.hash(s, saltGEStep) >> 11
		fromGood, fromBad := u < ff.gb, u >= ff.bg
		if fromGood == fromBad {
			return mk.move(t, fromGood != flip)
		}
		flip = flip != fromGood
	}
	if marked {
		return mk.move(t, mk.bad != flip)
	}
	return mk.move(t, (ff.hash(b, saltGEInit)>>11 < ff.loss) != flip)
}

// move sets the mark to state bad at slot t and returns bad.
func (mk *lossMark) move(t int64, bad bool) bool {
	*mk = lossMark{slot: t, bad: bad, set: true}
	return bad
}

// hash derives the slot's uniform draw for one fault sub-process.
func (ff *FaultFeed) hash(t int64, salt uint64) uint64 {
	return splitmix64(ff.model.Seed ^ splitmix64(uint64(t)+salt))
}

const (
	saltLoss    = 0xA11C_E0F_1055
	saltCorrupt = 0xBAD_C0DE
	saltGEInit  = 0x6E_1217
	saltGEStep  = 0x6E_57E9
)

// splitmix64 is the standard SplitMix64 finalizer — a bijective 64-bit
// mixer with full avalanche, the canonical way to turn a counter into an
// independent-looking stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// u01 maps a 64-bit hash to a uniform float64 in [0, 1). The feed itself
// compares h>>11 against thresholds (below), which decides every draw as
// u01(h) < p would; the tests' float references draw with u01.
func u01(h uint64) float64 {
	return float64(h>>11) * 0x1p-53
}

// floorMod returns t mod m with a non-negative result for any t.
func floorMod(t, m int64) int64 {
	r := t % m
	if r < 0 {
		r += m
	}
	return r
}
