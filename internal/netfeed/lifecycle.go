package netfeed

import (
	"errors"
	"fmt"
	"time"
)

// Connection lifecycle. A Conn is an explicit state machine:
//
//	CONNECTING → LIVE ⇄ (DEGRADED → RESUMING) → CLOSED
//
// CONNECTING covers the first dial + handshake (Dial returns only from
// LIVE or with an error). A LIVE connection that loses its control stream
// — socket error, heartbeat timeout, server drain with a restart hint —
// moves to DEGRADED and reconnects under capped exponential backoff with
// jitter; each attempt passes through RESUMING (dial + handshake in
// flight) and lands back in LIVE on success or DEGRADED on failure.
// CLOSED is terminal: reached by Close, by a terminal protocol error
// (desync, spec change, version skew, server shutdown without restart
// hint), or by exhausting the reconnect budget.
//
// The marking — state, slot clock, live session, outage cause, terminal
// error — is one value under Conn.lc. Cancellation is context-shaped:
// Close cancels the Conn's context, each session (dial included) is a
// child that dies with its first cause, and supervise, the only writer of
// transitions after Dial, finalizes on every exit.
//
// Queries never observe the transitions directly: a reception that
// straddles an outage resolves as FaultLost when its deadline passes and
// re-enters the recovery protocol (re-derive next arrival, retry), so a
// blip costs retries and recovery slots, never a wrong answer.

// State is a connection lifecycle state.
type State int32

const (
	// StateConnecting is the initial dial + handshake (only observable
	// from other goroutines while Dial is in flight).
	StateConnecting State = iota
	// StateLive is a healthy connection: handshake done, receptions
	// riding the wire.
	StateLive
	// StateDegraded is a lost connection awaiting its next reconnect
	// attempt (backoff in progress).
	StateDegraded
	// StateResuming is a reconnect attempt in flight (dial + resume
	// handshake).
	StateResuming
	// StateClosed is terminal: Close was called, a terminal protocol
	// error poisoned the connection, or the reconnect budget ran out.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateLive:
		return "live"
	case StateDegraded:
		return "degraded"
	case StateResuming:
		return "resuming"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// DegradedError reports a connection that is currently (or finally)
// without a live control stream. While the reconnect budget lasts it is
// transient — Err returns it, receptions resolve as losses, and the
// supervisor keeps dialing; once the budget is exhausted it becomes the
// connection's terminal error.
type DegradedError struct {
	// State is the lifecycle state at observation time (StateDegraded or
	// StateResuming while transient; StateClosed when terminal).
	State State
	// Attempt is the number of failed reconnect attempts in the current
	// outage.
	Attempt int
	// Err is the most recent underlying cause (socket error, heartbeat
	// timeout, refused dial, ...).
	Err error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("netfeed: connection %v after %d reconnect attempts: %v", e.State, e.Attempt, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *DegradedError) Unwrap() error { return e.Err }

// SpecChangeError reports a resume handshake that reached a server whose
// live broadcast no longer matches the client's cached preamble: the spec
// digests differ. The client's rebuilt trees, air indexes, and every
// in-flight query's state are bound to the old spec, so continuing would
// risk answers computed against the wrong catalog — the connection fails
// terminally instead, and the caller reconnects fresh with Dial/Connect.
type SpecChangeError struct {
	// OldDigest is the cached preamble's spec digest.
	OldDigest uint64
	// NewDigest is the digest the server announced on resume.
	NewDigest uint64
}

func (e *SpecChangeError) Error() string {
	return fmt.Sprintf("netfeed: broadcast spec changed across reconnect (digest %016x -> %016x): cached schedule is stale, a fresh Dial is required",
		e.OldDigest, e.NewDigest)
}

// ErrServerClosed is the terminal error of a connection whose server
// drained without a restart hint (GOODBYE with the resume flag clear):
// the broadcast is gone, reconnecting is pointless.
var ErrServerClosed = errors.New("netfeed: server closed the broadcast")

// errServerDraining is the transient form: the server drained WITH the
// restart hint, so the supervisor reconnects (and typically warm-resumes
// against the restarted instance).
var errServerDraining = errors.New("netfeed: server draining for restart")

// errConnClosed is the local Close sentinel.
var errConnClosed = errors.New("netfeed: connection closed")

// terminalErr reports whether err can never be healed by reconnecting:
// schedule truth is broken (desync), the broadcast changed or is gone
// (spec change, server shutdown), the protocol versions disagree, or the
// local side closed.
func terminalErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrServerClosed) || errors.Is(err, errConnClosed) {
		return true
	}
	var de *DesyncError
	var sce *SpecChangeError
	if errors.As(err, &de) || errors.As(err, &sce) {
		return true
	}
	var fe *FrameError
	return errors.As(err, &fe) && fe.Reason == FrameVersionSkew
}

// Reconnect/backoff defaults. The schedule is base·2^attempt clamped to
// the cap, with ±25% deterministic jitter (splitmix64 off the dial's
// jitter seed) so a thundering herd of clients cut off by one server
// restart does not re-dial in lockstep.
const (
	DefaultConnectTimeout = 10 * time.Second
	DefaultHeartbeat      = 500 * time.Millisecond
	DefaultHeartbeatMiss  = 4
	DefaultMaxReconnects  = 8
	DefaultBackoffBase    = 50 * time.Millisecond
	DefaultBackoffMax     = 2 * time.Second
)

// backoffDelay computes the attempt'th reconnect delay: exponential in
// the attempt, clamped to max, jittered ±25%. The jitter RNG is the
// frame layer's splitmix64, advanced in place through *rng.
func backoffDelay(base, max time.Duration, attempt int, rng *uint64) time.Duration {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter in [-25%, +25%): keep the floor positive.
	quarter := int64(d) / 4
	if quarter > 0 {
		*rng = splitmix64(*rng)
		d += time.Duration(int64(*rng%uint64(2*quarter)) - quarter)
	}
	return d
}
