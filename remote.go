package tnnbcast

import (
	"errors"
	"time"

	"tnnbcast/internal/netfeed"
)

// Networked broadcast: Connect attaches to a live tnnserve service and
// returns a RemoteSystem — a System whose channels are real sockets. At
// connect time the client receives the preamble (broadcast geometry +
// dataset catalog), rebuilds the air index locally, and from then on uses
// the wire only for receptions: it announces each slot it will be awake
// for and sleeps — genuinely not reading — between them, so the bytes read
// off the socket are the tune-in metric measured on a real wire. All four
// algorithms, the Cursor/Events API, and the session engine run unmodified;
// lost or damaged datagrams flow into the same recovery protocol and
// loss accounting as WithFaults.

// ConnectOption configures Connect.
type ConnectOption func(*connectConfig)

type connectConfig struct {
	dial netfeed.DialConfig
}

// WithTCPFrames delivers broadcast frames length-prefixed on the TCP
// control stream instead of UDP datagrams — the fallback for UDP-hostile
// paths. TCP cannot drop frames, so losses under it come only from
// server-side fault injection or backpressure overflow.
func WithTCPFrames() ConnectOption {
	return func(c *connectConfig) { c.dial.Transport = netfeed.TransportTCP }
}

// WithReceiveGrace sets how long past a slot's scheduled end the client
// keeps listening before declaring the reception lost (default 1s). It
// absorbs network latency and scheduler jitter: larger values make clean
// runs robust, smaller ones recover faster from true losses.
func WithReceiveGrace(d time.Duration) ConnectOption {
	return func(c *connectConfig) { c.dial.Grace = d }
}

// WithConnectTimeout bounds the time Connect (and each reconnect attempt)
// may spend dialing and completing the handshake (default 10s). An
// unreachable or black-holed address fails with a *ConnectError within
// this bound instead of hanging on the platform's TCP timeout.
func WithConnectTimeout(d time.Duration) ConnectOption {
	return func(c *connectConfig) { c.dial.ConnectTimeout = d }
}

// WithHeartbeat tunes liveness detection: the client pings the server
// every interval, and declares the connection dead — entering the
// reconnect path — after miss consecutive intervals without a reply
// (defaults 500ms × 4). Pass a negative interval to disable heartbeats
// entirely (silent TCP death is then detected only by reception
// deadlines).
func WithHeartbeat(interval time.Duration, miss int) ConnectOption {
	return func(c *connectConfig) {
		c.dial.Heartbeat = interval
		c.dial.HeartbeatMiss = miss
	}
}

// WithReconnectBackoff tunes the reconnect schedule after a lost
// connection: up to maxAttempts dials spaced base·2ⁿ apart, clamped to
// maxDelay, with ±25% jitter (defaults: 8 attempts, 50ms base, 2s cap).
// Zero values keep the defaults.
func WithReconnectBackoff(maxAttempts int, base, maxDelay time.Duration) ConnectOption {
	return func(c *connectConfig) {
		c.dial.MaxReconnects = maxAttempts
		c.dial.BackoffBase = base
		c.dial.BackoffMax = maxDelay
	}
}

// WithoutReconnect disables automatic reconnection: the first lost
// connection is terminal, as in the pre-lifecycle client.
func WithoutReconnect() ConnectOption {
	return func(c *connectConfig) { c.dial.MaxReconnects = -1 }
}

// RemoteSystem is a System whose broadcast channels are a live network
// service. Every System entry point works unmodified, with two rules that
// the one request pipeline applies on each of them: queries are issued at
// the service's CURRENT slot (see IssueSlot), because a real broadcast
// cannot be rewound — an explicit WithIssue still overrides, for issuing
// at a chosen future slot — and a connection-level failure is translated
// onto each answer's error (Result.Err, TopKResult.Err).
type RemoteSystem struct {
	*System
	conn *netfeed.Conn
}

// liveConn is what the request pipeline reads of a live connection: the
// slot a query issued now enters the broadcast at, and the connection's
// failure. *netfeed.Conn implements it.
type liveConn interface {
	NextIssueSlot() int64
	Err() error
}

// Connect dials a tnnserve service, performs the handshake, and rebuilds
// the broadcast system client-side. Failures — unreachable address,
// handshake errors, a malformed or version-skewed preamble — return a
// *ConnectError wrapping the cause.
func Connect(addr string, opts ...ConnectOption) (*RemoteSystem, error) {
	var cfg connectConfig
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := netfeed.Dial(addr, cfg.dial)
	if err != nil {
		return nil, &ConnectError{Addr: addr, Err: err}
	}
	sys := newSystem(conn.Air(), conn.FeedS(), conn.FeedR(), conn.Spec().Region)
	sys.live = conn
	return &RemoteSystem{System: sys, conn: conn}, nil
}

// Close disconnects from the service. In-flight queries resolve with
// channel errors rather than blocking forever.
func (rs *RemoteSystem) Close() error { return rs.conn.Close() }

// LiveSlot returns the broadcast slot currently on air.
func (rs *RemoteSystem) LiveSlot() int64 { return rs.conn.LiveSlot() }

// IssueSlot returns the slot at which a query issued now would enter the
// broadcast — slightly past the live slot, covering clock skew and
// subscription propagation. Every query entry point uses it as the
// default issue slot; pass it to an in-process twin's WithIssue to
// compare runs slot-for-slot.
func (rs *RemoteSystem) IssueSlot() int64 { return rs.conn.NextIssueSlot() }

// NetStats are the connection's raw reception counters; see
// netfeed.NetStats for the field semantics. BytesRead ≈ TuneIn × FrameSize
// is the real-doze invariant the load harness asserts; reconnect-handshake
// traffic is accounted separately (ResumeBytes) so the invariant survives
// outages, and ResumedWarm counts the reconnects that skipped the preamble
// body entirely (PreambleBytes does not grow on a warm resume).
type NetStats struct {
	BytesRead     int64
	FramesRead    int64
	PreambleBytes int64
	ResumeBytes   int64
	Reconnects    int64
	ResumedWarm   int64
	HeartbeatRTT  time.Duration
	FrameSize     int
}

// NetStats snapshots the connection's reception counters.
func (rs *RemoteSystem) NetStats() NetStats {
	st := rs.conn.Stats()
	return NetStats{
		BytesRead:     st.BytesRead,
		FramesRead:    st.FramesRead,
		PreambleBytes: st.PreambleBytes,
		ResumeBytes:   st.ResumeBytes,
		Reconnects:    st.Reconnects,
		ResumedWarm:   st.ResumedWarm,
		HeartbeatRTT:  st.HeartbeatRTT,
		FrameSize:     st.FrameSize,
	}
}

// State reports the connection lifecycle state ("connecting", "live",
// "degraded", "resuming", or "closed").
func (rs *RemoteSystem) State() string { return rs.conn.State().String() }

// Err returns the connection's error: nil while healthy, a transient
// *DegradedError during an outage the client is still reconnecting from,
// or a permanent error — *DesyncError, exhausted reconnect budget, server
// shutdown — once the connection cannot recover.
func (rs *RemoteSystem) Err() error { return translate(rs.conn.Err(), nil) }

// translate maps connection-level failures onto the public error family.
// A desync (or a spec change found at resume time, its handshake-borne
// form) turns a query's *ChannelError into a *DesyncError wrapping the
// final *PageFaultError, because retrying cannot help when schedule truth
// itself is broken. An outage — transient or final — surfaces as a public
// *DegradedError. resultErr passes through untouched in every other case.
func translate(connErr, resultErr error) error {
	var fault *PageFaultError
	var ce *ChannelError
	if errors.As(resultErr, &ce) {
		fault = ce.Fault
	}
	var d *netfeed.DesyncError
	if errors.As(connErr, &d) {
		// d.Channel names the dataset whose page was due, which on one
		// multiplexed channel need not be the physical channel 0.
		out := &DesyncError{Slot: d.Slot, Channel: "S", Fault: fault}
		if d.Channel == 1 {
			out.Channel = "R"
		}
		return out
	}
	var sce *netfeed.SpecChangeError
	if errors.As(connErr, &sce) {
		return &DesyncError{Slot: -1, Channel: "", Fault: fault}
	}
	var de *netfeed.DegradedError
	if errors.As(connErr, &de) {
		return &DegradedError{
			Attempts: de.Attempt,
			Terminal: de.State == netfeed.StateClosed,
			Err:      de.Err,
		}
	}
	if resultErr != nil {
		return resultErr
	}
	return connErr
}
