// Error taxonomy. Construction-time defects are typed per cause:
// *InvalidPointError, *InvalidRegionError, *InvalidWeightError (New and
// NewChain), *UnsupportedOptionError (New and NewChain), and
// *InvalidPointError (a non-finite query point) / *UnknownAlgorithmError /
// *InvalidIssueError at query admission. Runtime channel failures under
// WithFaults are typed too: a query that exhausts its retry budget on one
// channel reports a *ChannelError (wrapping the final *PageFaultError) in
// Result.Err rather than failing the call — the query still returns its
// metrics, and a retrieval-phase escalation even keeps the found answer
// pair. All types work with errors.As/Is; ChannelError.Unwrap exposes the
// fault.
//
// The network family (Connect / RemoteSystem) extends the taxonomy with
// three types. *ConnectError wraps everything that can go wrong before a
// RemoteSystem exists: an unreachable address, a handshake failure, a
// malformed or version-skewed preamble (Unwrap exposes the cause). After
// connect, ordinary packet loss is NOT an error — it is the same
// *PageFaultError → retry → *ChannelError ladder as WithFaults, with the
// faults coming off a real wire — and neither is an outage: a lost link
// surfaces as a transient *DegradedError from RemoteSystem.Err while the
// connection reconnects under backoff, becoming permanent only when the
// reconnect budget runs out. The genuinely new failure is *DesyncError:
// the broadcast contradicted the client's locally rebuilt schedule
// (a wrong page on air, or a spec change discovered across a reconnect),
// so retrying cannot help; it wraps the final *PageFaultError of the
// query that died on it.

package tnnbcast

import (
	"errors"
	"fmt"

	"tnnbcast/internal/broadcast"
)

// PageFaultError reports one failed page reception on a lossy channel
// (see WithFaults): the page was either lost outright or received damaged
// (on a remote feed, its netfeed frame failed the CRC32-C check; on a
// simulated one, FaultModel.Corrupt stands for that check failing).
// Individual faults are retried transparently; a PageFaultError surfaces
// only inside a ChannelError, as the final fault of an exhausted retry
// budget.
type PageFaultError struct {
	// Channel names the channel the fault occurred on ("S" or "R"; chain
	// channels are "ch0", "ch1", … in visiting order).
	Channel string
	// Slot is the broadcast slot whose page failed.
	Slot int64
	// Corrupt is true when the page arrived but failed its checksum (the
	// receiver paid the tune-in cost), false when it never arrived.
	Corrupt bool
}

func (e *PageFaultError) Error() string {
	what := "lost"
	if e.Corrupt {
		what = "corrupt"
	}
	return fmt.Sprintf("tnnbcast: channel %s page at slot %d %s", e.Channel, e.Slot, what)
}

// ChannelError reports a channel a query gave up on: MaxRetries (see
// WithMaxRetries) consecutive receptions failed, so the client declares
// the medium dead for this query instead of waiting forever. It is
// reported via Result.Err — a search-phase escalation leaves Found false,
// while an escalation during final answer retrieval keeps the found pair
// (only the attribute download failed). Unwrap exposes the final fault.
type ChannelError struct {
	// Channel names the dead channel ("S", "R", or "chN" for chains).
	Channel string
	// Attempts is the number of consecutive failed receptions.
	Attempts int
	// Fault is the final fault that triggered the escalation.
	Fault *PageFaultError
}

func (e *ChannelError) Error() string {
	return fmt.Sprintf("tnnbcast: channel %s failed %d consecutive receptions (last: %v)",
		e.Channel, e.Attempts, e.Fault)
}

// Unwrap exposes the final PageFaultError to errors.Is/As chains.
func (e *ChannelError) Unwrap() error {
	if e.Fault == nil {
		return nil
	}
	return e.Fault
}

// publicErr translates an internal channel escalation into the public
// error types; any other (or nil) error passes through.
func publicErr(err error) error {
	if err == nil {
		return nil
	}
	var cerr *broadcast.ChannelError
	if !errors.As(err, &cerr) {
		return err
	}
	out := &ChannelError{Channel: cerr.Channel, Attempts: cerr.Attempts}
	if cerr.Last != nil {
		out.Fault = &PageFaultError{
			Channel: cerr.Channel,
			Slot:    cerr.Last.Slot,
			Corrupt: cerr.Last.Kind == broadcast.FaultCorrupt,
		}
	}
	return out
}

// ConnectError reports a failed Connect: the service was unreachable, the
// handshake failed, or the preamble was malformed or version-skewed.
// Unwrap exposes the underlying cause (a net error, or a typed framing
// error from the netfeed protocol layer).
type ConnectError struct {
	// Addr is the address Connect dialed.
	Addr string
	// Err is the underlying cause.
	Err error
}

func (e *ConnectError) Error() string {
	return fmt.Sprintf("tnnbcast: connect %s: %v", e.Addr, e.Err)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *ConnectError) Unwrap() error { return e.Err }

// DesyncError reports a remote broadcast that contradicts the client's
// locally reconstructed schedule: a structurally valid frame arrived for a
// slot but carried a different page than the air index says is on air —
// or a reconnect handshake found the server broadcasting a different spec
// than the one the client's schedule was rebuilt from (Channel "" and
// Slot -1 mark that form). Unlike loss or corruption — which the recovery
// protocol retries — a desync means schedule truth itself is broken
// (server restarted with a different dataset, or the client's clock
// drifted a full slot), so the connection fails fast and queries report
// this instead of a bare *ChannelError. Reconnecting (a fresh Connect) is
// the only remedy.
type DesyncError struct {
	// Channel names the dataset whose page the schedule expected ("S" or
	// "R", also on one WithSingleChannel channel; "" when the desync is a
	// spec change found at resume time, before any channel carried a
	// contradicting frame).
	Channel string
	// Slot is the broadcast slot whose frame contradicted the schedule
	// (-1 for the spec-change form).
	Slot int64
	// Fault is the final reception fault of the query that died on the
	// desynced connection (nil when the desync is reported off a
	// connection with no failed query, e.g. via RemoteSystem.Err).
	Fault *PageFaultError
}

func (e *DesyncError) Error() string {
	if e.Channel == "" {
		return "tnnbcast: broadcast spec changed across reconnect: local schedule is stale (a fresh Connect is required)"
	}
	return fmt.Sprintf("tnnbcast: broadcast desync on channel %s at slot %d: received page contradicts the local air index (reconnect required)",
		e.Channel, e.Slot)
}

// Unwrap exposes the final PageFaultError to errors.Is/As chains.
func (e *DesyncError) Unwrap() error {
	if e.Fault == nil {
		return nil
	}
	return e.Fault
}

// DegradedError reports a connection currently without a live control
// stream. While the reconnect budget lasts it is transient: the client
// keeps re-dialing under capped exponential backoff, receptions resolve
// as ordinary losses into the recovery protocol, and RemoteSystem.Err
// returns this so callers can observe the outage without treating it as
// fatal. Once the budget is exhausted (or reconnection is disabled) it
// becomes the connection's permanent error. Terminal is the discriminant.
type DegradedError struct {
	// Attempts is the number of failed reconnect attempts in the outage.
	Attempts int
	// Terminal is true when the reconnect budget is exhausted and the
	// connection will not recover; false while reconnection is still in
	// progress.
	Terminal bool
	// Err is the most recent underlying cause (socket error, heartbeat
	// timeout, refused dial, ...).
	Err error
}

func (e *DegradedError) Error() string {
	state := "reconnecting"
	if e.Terminal {
		state = "gave up"
	}
	return fmt.Sprintf("tnnbcast: connection degraded (%s after %d attempts): %v", state, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *DegradedError) Unwrap() error { return e.Err }

// InvalidPointError reports a point with a NaN or infinite coordinate: a
// dataset point passed to New (or NewChain), or a query point. Such points
// cannot be indexed — they break the R-tree sort order and poison every
// distance computation — so they are rejected up front instead of
// silently corrupting the broadcast program or answering Found=false
// after a full tune-in.
type InvalidPointError struct {
	// Dataset names the offending input ("S", "R", the chain position
	// "datasets[i]", or "query" for a query point).
	Dataset string
	// Index is the point's position within the dataset slice (0 for a
	// query point).
	Index int
	// Point is the offending value.
	Point Point
}

func (e *InvalidPointError) Error() string {
	if e.Dataset == "query" {
		return fmt.Sprintf("tnnbcast: query point has non-finite coordinates (%g, %g)", e.Point.X, e.Point.Y)
	}
	return fmt.Sprintf("tnnbcast: %s[%d] has non-finite coordinates (%g, %g)",
		e.Dataset, e.Index, e.Point.X, e.Point.Y)
}

// UnsupportedOptionError reports an Option that a constructor cannot
// honour: WithSingleChannel multiplexes exactly two datasets, so NewChain
// rejects it instead of silently building dedicated channels; and New and
// NewChain reject a negative WithReplicatedLevels.
type UnsupportedOptionError struct {
	// Func is the rejecting constructor.
	Func string
	// Option names the rejected option.
	Option string
}

func (e *UnsupportedOptionError) Error() string {
	return fmt.Sprintf("tnnbcast: %s does not support %s", e.Func, e.Option)
}

// UnknownAlgorithmError reports an Algorithm value that is neither a
// built-in nor registered via RegisterAlgorithm. Before the v2 API such
// values silently ran Double-NN — an experiment with a typo'd algorithm
// would happily measure the wrong thing — so they now fail loudly,
// matching the index-scheme validation in New: Do, Start, and QueryBatch
// return this error; the legacy Query signature has no error result and
// panics with it instead.
type UnknownAlgorithmError struct {
	// Algo is the unregistered value.
	Algo Algorithm
}

func (e *UnknownAlgorithmError) Error() string {
	return fmt.Sprintf("tnnbcast: unknown algorithm Algorithm(%d): not a built-in and not registered", int(e.Algo))
}

// InvalidIssueError reports a batch client whose issue slot is negative.
// A QueryBatch runs on one shared broadcast timeline that starts at slot
// 0, and a client tunes in at its issue slot — a negative slot has no
// admission point. (Duplicate and far-future issue slots are both valid:
// any number of clients may tune in at the same slot, and a far-future
// client costs nothing until the timeline gets there.) Single-shot Do,
// Start, and Query calls are unaffected: they run on a private timeline
// and accept any issue slot. QueryBatch returns this error.
type InvalidIssueError struct {
	// Client is the offending request's index within its batch.
	Client int
	// Issue is the rejected issue slot.
	Issue int64
}

func (e *InvalidIssueError) Error() string {
	return fmt.Sprintf("tnnbcast: batch client %d has negative issue slot %d (a batch starts at slot 0; use WithIssue(i) with i >= 0)",
		e.Client, e.Issue)
}

// UnknownVariantError reports a Request.Variant outside the defined
// enum. Like UnknownAlgorithmError, a typo'd variant must fail loudly
// instead of silently running the default query shape.
type UnknownVariantError struct {
	// Variant is the undefined value.
	Variant Variant
}

func (e *UnknownVariantError) Error() string {
	return fmt.Sprintf("tnnbcast: undefined query variant Variant(%d)", int(e.Variant))
}

// InvalidTopKError reports a TopK request whose K is not positive: a
// top-k query with no answer slots has no defined result shape.
type InvalidTopKError struct {
	// K is the rejected answer count.
	K int
}

func (e *InvalidTopKError) Error() string {
	return fmt.Sprintf("tnnbcast: top-k request needs K >= 1, got %d", e.K)
}

// UnknownIndexSchemeError reports a WithIndexScheme value outside the
// defined enum — a typo'd or future constant fails loudly at New
// instead of silently building the preorder scheme.
type UnknownIndexSchemeError struct {
	// Scheme is the undefined value.
	Scheme IndexScheme
}

func (e *UnknownIndexSchemeError) Error() string {
	return fmt.Sprintf("tnnbcast: unknown index scheme IndexScheme(%d)", int(e.Scheme))
}

// InvalidScheduleError reports a WithSkewedSchedule configuration whose
// disk count or frequency ratio is out of range (see
// broadcast.MaxSkewClasses): beyond a handful of frequency classes the
// cycle only stretches.
type InvalidScheduleError struct {
	// Disks is the configured disk count.
	Disks int
	// Ratio is the configured frequency ratio.
	Ratio int
}

func (e *InvalidScheduleError) Error() string {
	if e.Disks < 1 || e.Disks > broadcast.MaxSkewClasses {
		return fmt.Sprintf("tnnbcast: skewed schedule needs 1..%d disks, got %d",
			broadcast.MaxSkewClasses, e.Disks)
	}
	return fmt.Sprintf("tnnbcast: skewed schedule needs a frequency ratio in 2..%d, got %d",
		broadcast.MaxSkewClasses, e.Ratio)
}

// InvalidRegionError reports a WithRegion rectangle with NaN or infinite
// bounds, or with inverted bounds (Hi < Lo on either axis).
// Approximate-TNN scales its radius estimate by the region's area, so
// either defect zeroes the area and silently disables that algorithm.
type InvalidRegionError struct {
	Region Rect
}

func (e *InvalidRegionError) Error() string {
	return fmt.Sprintf("tnnbcast: service region has non-finite or inverted bounds %v", e.Region)
}

// InvalidWeightError reports a WithAccessWeights vector that does not
// match its dataset or contains a negative or non-finite weight.
type InvalidWeightError struct {
	// Dataset names the offending input ("S" or "R").
	Dataset string
	// Index is the offending weight's position, or -1 for a length
	// mismatch.
	Index int
	// Weight is the offending value (length mismatch: the slice length).
	Weight float64
}

func (e *InvalidWeightError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("tnnbcast: %d access weights do not match dataset %s",
			int(e.Weight), e.Dataset)
	}
	return fmt.Sprintf("tnnbcast: access weight %s[%d] = %g is negative or non-finite",
		e.Dataset, e.Index, e.Weight)
}
