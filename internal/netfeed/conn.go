package netfeed

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tnnbcast/internal/broadcast"
	"tnnbcast/internal/heapx"
	"tnnbcast/internal/rtree"
)

// DialConfig configures a client connection.
type DialConfig struct {
	// Transport selects how frames are delivered (default TransportUDP).
	Transport Transport
	// Grace is how long past a slot's scheduled end the client keeps
	// listening before declaring the reception lost. It absorbs network
	// latency and scheduler jitter; larger values trade recovery latency
	// on a truly lost packet for fewer spurious losses.
	Grace time.Duration
	// ConnectTimeout bounds each dial + handshake attempt — the TCP
	// connect, the HELLO write, and the full preamble read together. A
	// black-holed address fails within it instead of hanging (default
	// DefaultConnectTimeout).
	ConnectTimeout time.Duration
	// Heartbeat is the PING interval on the control stream (default
	// DefaultHeartbeat; negative disables heartbeats). A silent TCP peer
	// is declared dead after HeartbeatMiss missed intervals.
	Heartbeat time.Duration
	// HeartbeatMiss is how many Heartbeat intervals may pass without a
	// PONG before the session is declared dead (default
	// DefaultHeartbeatMiss).
	HeartbeatMiss int
	// MaxReconnects is the consecutive-failure budget of one outage:
	// after this many failed reconnect attempts the connection fails
	// terminally (default DefaultMaxReconnects; negative disables
	// reconnection entirely — the first session loss is final).
	MaxReconnects int
	// BackoffBase and BackoffMax bound the exponential reconnect backoff
	// (defaults DefaultBackoffBase / DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the deterministic backoff jitter; 0 seeds from
	// the wall clock (fine outside reproducible tests).
	JitterSeed uint64
}

// DefaultGrace is the default per-slot reception grace.
const DefaultGrace = time.Second

// issueMargin is how many slots past the live slot NextIssueSlot
// schedules new queries, covering clock skew between client and server
// plus WAKE propagation.
const issueMargin = 3

// DesyncError reports a broadcast that contradicts the client's locally
// reconstructed schedule: a structurally valid frame arrived for a slot,
// but carries a different page than the air index says is on air. The
// client's schedule truth is broken — retrying cannot help — so the
// connection poisons itself and every subsequent reception fails fast.
type DesyncError struct {
	// Channel is the dataset that owns the expected page: 0 for S, 1 for
	// R. On one multiplexed channel it can differ from Physical.
	Channel uint8
	// Physical is the physical channel the contradiction appeared on.
	Physical uint8
	// Slot is the absolute slot.
	Slot int64
	// WantKind/WantRef and GotKind/GotRef identify the expected and
	// received pages.
	WantKind, GotKind broadcast.PageKind
	WantRef, GotRef   uint32
}

func (e *DesyncError) Error() string {
	return fmt.Sprintf("netfeed: schedule desync on channel %d (dataset %d) slot %d: air carries %v/%d, local index says %v/%d",
		e.Physical, e.Channel, e.Slot, e.GotKind, e.GotRef, e.WantKind, e.WantRef)
}

// NetStats are a connection's raw reception counters.
type NetStats struct {
	// BytesRead counts every byte read off the frame sockets (UDP
	// datagrams or TCP frame segments including their length prefixes) —
	// the real-wire tune-in proxy. The preamble and the control chatter
	// (PING/PONG, GOODBYE) are counted separately, so for UDP clients
	// BytesRead == FramesRead × FrameSize holds exactly.
	BytesRead int64
	// FramesRead counts delivered frames (valid or checksum-failed).
	FramesRead int64
	// PreambleBytes is the one-time index-acquisition cost of the first
	// handshake.
	PreambleBytes int64
	// ResumeBytes counts resume-handshake bytes (warm or cold preambles
	// received across reconnects) — kept apart from PreambleBytes so a
	// warm resume demonstrably re-acquires the index for free.
	ResumeBytes int64
	// FrameSize is the fixed on-wire size of one slot's frame.
	FrameSize int
	// Reconnects counts sessions re-established after the first.
	Reconnects int64
	// ResumedWarm counts reconnects that warm-resumed: the spec digest
	// matched, zero catalog bytes moved, trees and programs were reused.
	ResumedWarm int64
	// HeartbeatRTT is the most recent PING→PONG round trip (0 before the
	// first echo or with heartbeats disabled).
	HeartbeatRTT time.Duration
}

// slotKey addresses one reception.
type slotKey struct {
	ch   uint8
	slot int64
}

// slotState tracks one subscribed slot. It resolves once — a frame is
// delivered (fault nil, or FaultCorrupt) or the connection dies — and
// every reception parked on it is handed the outcome. States are recycled
// through the Conn's free list once keepTime evicts them; a state with
// parked receptions is never evicted, and frames find states only by key,
// so a late frame can never resolve a state recycled for another key.
type slotState struct {
	resolved bool
	fault    *broadcast.PageFault // nil: clean reception
	// deadline is the latest waiter's give-up time; keepTime must not
	// evict an unresolved subscription before it passes.
	deadline time.Time
	// wakeGen is the generation of the session whose WAKE covers this
	// subscription (0: none yet). A reconnect re-arms every unresolved
	// subscription on the new session exactly once.
	wakeGen uint64
	// waiters are the receptions parked on this slot; the slice keeps its
	// capacity across recycling.
	waiters []*waiter
}

// waiter is one reception parked in receive. Its wake-up channel holds at
// most one token: whoever resolves the waiter first under Conn.mu —
// deliver, the deadline heap, or finalize — marks it done, records the
// outcome and sends the token. Waiters are recycled; gen counts their
// uses, so a deadline-heap entry left from an earlier use is recognised
// as stale and can never expire the waiter's current reception.
type waiter struct {
	wake  chan struct{} // capacity 1, reused across receptions
	gen   uint64
	st    *slotState // the slot parked on, while not done
	done  bool
	lost  bool                 // the deadline passed first
	fault *broadcast.PageFault // outcome when resolved by a frame
}

// deadlineEntry is one parked reception's give-up time on the deadline
// heap; gen is the waiter's use it belongs to.
type deadlineEntry struct {
	at  time.Time
	w   *waiter
	gen uint64
}

func deadlineLess(a, b deadlineEntry) bool { return a.at.Before(b.at) }

// sweepEvery is how often keepTime evicts settled receptions.
const sweepEvery = time.Second

// session is one TCP control stream's lifetime: dialed and handshaken by
// connect, killed by the first error (socket, heartbeat, GOODBYE), and
// replaced by the supervisor. The UDP socket outlives sessions — it is
// bound once per Conn and its announced port travels in every HELLO.
//
// A session is its context: derived from the Conn's, so Close ends it
// too, and cancelled by die with the terminal cause, the first of which
// sticks (context.Cause reads it). The stream's socket is closed the
// moment the context ends, which unblocks every read on it.
type session struct {
	c       *Conn
	gen     uint64
	tcp     net.Conn
	writeMu sync.Mutex
	wbuf    [wakeSize]byte // the WAKE or PING being written, under writeMu

	ctx      context.Context
	die      context.CancelCauseFunc
	lastPong atomic.Int64 // UnixNano of the last PONG (or session start)
	wg       sync.WaitGroup
}

// writeWake sends one WAKE on the session's TCP stream, encoded into the
// session's own buffer.
func (s *session) writeWake(ch uint8, slot int64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_, err := s.tcp.Write(appendWake(s.wbuf[:0], ch, slot))
	return err
}

// writePing sends one heartbeat PING, encoded like writeWake.
func (s *session) writePing(nonce uint64) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_, err := s.tcp.Write(appendPing(s.wbuf[:0], nonce))
	return err
}

// Conn is a live client connection: it rebuilds the broadcast schedule
// from the preamble and exposes the two datasets' channels as
// broadcast.Feed values whose receptions ride real packets. A Conn is safe
// for concurrent use by any number of queries, and survives link loss:
// a supervisor reconnects with backoff and warm-resumes against an
// unchanged broadcast (see the lifecycle overview in lifecycle.go).
type Conn struct {
	cfg  DialConfig
	addr string

	spec      Spec
	digest    uint64
	frameSize int
	air       *broadcast.Air // built once, at Dial

	// ctx is the Conn's lifetime: Close cancels it, which ends every
	// session, every dial + handshake in flight, and every goroutine.
	ctx    context.Context
	cancel context.CancelFunc

	// lc is the lifecycle lock. It guards the whole marking of the state
	// machine — the slot clock, the live session and its generation, the
	// state, the outage bookkeeping and the terminal error — so one
	// acquisition reads a consistent lifecycle.
	lc          sync.Mutex
	clock       slotClock
	sess        *session
	gen         uint64
	state       State
	degradedErr error
	attempt     int
	fatalErr    error

	udp *net.UDPConn

	// mu guards the reception state: the subscription map, the deadline
	// heap, the free lists, and final.
	mu          sync.Mutex
	slots       map[slotKey]*slotState
	deadlines   []deadlineEntry // min-heap of parked receptions' give-up times
	freeStates  []*slotState
	freeWaiters []*waiter
	final       bool          // finalize ran: receptions fail fast
	kick        chan struct{} // wakes keepTime when the earliest deadline moves up

	bytesRead     atomic.Int64
	framesRead    atomic.Int64
	preambleBytes int64
	resumeBytes   atomic.Int64
	reconnects    atomic.Int64
	resumedWarm   atomic.Int64
	hbRTT         atomic.Int64

	rng uint64 // backoff jitter state: only supervise touches it after Dial

	wg sync.WaitGroup
}

// Dial connects to a tnnserve service, performs the HELLO/PREAMBLE
// handshake, rebuilds the air schedule locally, and starts the reception
// machinery plus the reconnect supervisor. The first dial + handshake is
// bounded by ConnectTimeout.
func Dial(addr string, cfg DialConfig) (*Conn, error) {
	if cfg.Grace <= 0 {
		cfg.Grace = DefaultGrace
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = DefaultConnectTimeout
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.HeartbeatMiss <= 0 {
		cfg.HeartbeatMiss = DefaultHeartbeatMiss
	}
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = DefaultMaxReconnects
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	c := &Conn{
		cfg:   cfg,
		addr:  addr,
		slots: make(map[slotKey]*slotState),
		kick:  make(chan struct{}, 1),
		rng:   cfg.JitterSeed,
	}
	if c.rng == 0 {
		c.rng = uint64(time.Now().UnixNano())
	}
	if cfg.Transport == TransportUDP {
		udp, err := net.ListenUDP("udp", nil)
		if err != nil {
			return nil, err
		}
		c.udp = udp
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	sess, err := c.connect(false)
	if err != nil {
		c.cancel()
		if c.udp != nil {
			c.udp.Close()
		}
		return nil, err
	}
	c.installSession(sess)
	if c.udp != nil {
		c.wg.Add(1)
		go c.udpReader()
	}
	c.wg.Add(1)
	go c.keepTime()
	c.wg.Add(1)
	go c.supervise()
	return c, nil
}

// connect performs one dial + handshake attempt, bounded end to end by
// ConnectTimeout. On resume it offers the cached spec digest; the server
// answers with the warm preamble (clock re-anchor only) when the digest
// still names the live broadcast, or the full preamble otherwise — and a
// full preamble whose digest differs from the cache is a terminal
// *SpecChangeError, because the client's trees and in-flight queries are
// bound to the old spec. The attempt runs under the session's context
// from the start, so Close cancels an in-flight dial and closes the
// handshake socket under a blocked read.
func (c *Conn) connect(resume bool) (*session, error) {
	ctx, die := context.WithCancelCause(c.ctx)
	fail := func(err error) (*session, error) {
		die(err)
		return nil, c.closedOr(err)
	}
	deadline := time.Now().Add(c.cfg.ConnectTimeout)
	dialCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var d net.Dialer
	tcp, err := d.DialContext(dialCtx, "tcp", c.addr)
	if err != nil {
		return fail(err)
	}
	context.AfterFunc(ctx, func() { tcp.Close() })

	var udpPort int
	if c.udp != nil {
		udpPort = c.udp.LocalAddr().(*net.UDPAddr).Port
	}
	tcp.SetDeadline(deadline)
	if _, err := tcp.Write(appendHello(nil, c.cfg.Transport, udpPort, resume, c.digest)); err != nil {
		return fail(err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(tcp, lenBuf[:]); err != nil {
		return fail(err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > preambleMax {
		return fail(&FrameError{Part: "preamble", Reason: FrameBadLength, Got: int(n), Want: preambleMax})
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(tcp, blob); err != nil {
		return fail(err)
	}
	recv := time.Now()
	tcp.SetDeadline(time.Time{})

	spec, slotDur, liveSlot, digest, warm, err := decodePreamble(blob)
	if err != nil {
		return fail(err)
	}
	switch {
	case warm:
		// The warm form only ever answers a resume offer with the same
		// digest; anything else is a server protocol violation.
		if !resume || digest != c.digest {
			return fail(&FrameError{Part: "preamble", Reason: FrameBadField, Got: int(uint32(digest)), Want: int(uint32(c.digest))})
		}
		c.resumedWarm.Add(1)
	case resume:
		// A full preamble for the cached digest names the broadcast the
		// Conn already holds, so the schedule stays as built.
		if digest != c.digest {
			return fail(&SpecChangeError{OldDigest: c.digest, NewDigest: digest})
		}
	default:
		air, err := spec.build(broadcast.FaultModel{})
		if err != nil {
			// The spec passed the decoder's checks, but its cycle runs
			// over 2³¹-1 slots, which only the build can see.
			return fail(&FrameError{Part: "preamble", Reason: FrameBadField})
		}
		c.spec = spec
		c.digest = digest
		c.frameSize = FrameSize(spec.Params)
		c.air = air
		c.preambleBytes = int64(len(blob) + 4)
	}
	if resume {
		c.resumeBytes.Add(int64(len(blob) + 4))
	}
	// Anchoring the epoch at the preamble's receive time makes the client
	// clock run LATE by (network latency + up to one slot): every local
	// deadline lands after the server's real transmission, so latency can
	// only add grace, never manufacture a spurious loss. A resume
	// re-anchors against the (possibly restarted) server's live slot.
	c.lc.Lock()
	c.clock = slotClock{epoch: recv.Add(-time.Duration(liveSlot) * slotDur), dur: slotDur}
	c.gen++
	gen := c.gen
	c.lc.Unlock()

	sess := &session{c: c, gen: gen, tcp: tcp, ctx: ctx, die: die}
	sess.lastPong.Store(recv.UnixNano())
	sess.wg.Add(1)
	go sess.readLoop()
	if c.cfg.Heartbeat > 0 {
		sess.wg.Add(1)
		go sess.heartbeat(c.cfg.Heartbeat, c.cfg.HeartbeatMiss)
	}
	return sess, nil
}

// installSession publishes a freshly handshaken session as the live one
// and clears the outage bookkeeping.
func (c *Conn) installSession(sess *session) {
	c.lc.Lock()
	c.sess = sess
	c.degradedErr, c.attempt = nil, 0
	c.state = StateLive
	c.lc.Unlock()
}

// curSession returns the most recently installed session (possibly
// already dead).
func (c *Conn) curSession() *session {
	c.lc.Lock()
	defer c.lc.Unlock()
	return c.sess
}

// closedOr maps a failure to the Close sentinel once the Conn's context
// is cancelled: whatever a closing socket reports, the cause is Close.
func (c *Conn) closedOr(err error) error {
	if c.ctx.Err() != nil {
		return errConnClosed
	}
	return err
}

// supervise is the lifecycle driver: it watches the live session, and on
// session death either finalizes (terminal cause, reconnect disabled, or
// budget exhausted) or cycles DEGRADED → RESUMING → LIVE under backoff.
// Every return finalizes, so when Close's wait ends the Conn is CLOSED.
func (c *Conn) supervise() {
	defer c.wg.Done()
	for {
		sess := c.curSession()
		<-sess.ctx.Done() // the session died, or Close cancelled its parent
		sess.wg.Wait()
		err := c.closedOr(context.Cause(sess.ctx))
		if terminalErr(err) || c.cfg.MaxReconnects < 0 {
			c.finalize(err)
			return
		}
		c.noteOutage(err, 0)
		for attempt := 0; ; {
			timer := time.NewTimer(backoffDelay(c.cfg.BackoffBase, c.cfg.BackoffMax, attempt, &c.rng))
			select {
			case <-c.ctx.Done():
				timer.Stop()
				c.finalize(errConnClosed)
				return
			case <-timer.C:
			}
			c.lc.Lock()
			c.state = StateResuming
			c.lc.Unlock()
			next, err := c.connect(true)
			if err == nil {
				c.reconnects.Add(1)
				c.installSession(next)
				c.rearmWakes(next)
				break
			}
			if terminalErr(err) {
				c.finalize(err)
				return
			}
			attempt++
			c.noteOutage(err, attempt)
			if attempt >= c.cfg.MaxReconnects {
				c.finalize(&DegradedError{State: StateClosed, Attempt: attempt, Err: err})
				return
			}
		}
	}
}

// noteOutage records the latest transient cause and enters DEGRADED.
func (c *Conn) noteOutage(err error, attempt int) {
	c.lc.Lock()
	c.degradedErr, c.attempt = err, attempt
	c.state = StateDegraded
	c.lc.Unlock()
}

// finalize poisons the connection terminally: the fatal error sticks,
// the state machine parks in CLOSED, the current session dies, the UDP
// socket closes, and every pending reception resolves as lost.
func (c *Conn) finalize(err error) {
	c.lc.Lock()
	if c.fatalErr == nil {
		c.fatalErr = err
	}
	c.state = StateClosed
	sess := c.sess
	c.lc.Unlock()
	sess.die(err)
	sess.wg.Wait()
	if c.udp != nil {
		c.udp.Close()
	}
	c.mu.Lock()
	c.final = true
	for key, st := range c.slots {
		if !st.resolved {
			c.settle(st, &broadcast.PageFault{Slot: key.slot, Kind: broadcast.FaultLost})
		}
	}
	c.mu.Unlock()
}

// rearmWakes replays every unresolved subscription's WAKE on a freshly
// resumed session — the doze/wake schedule survives the outage, so
// queries parked on future slots keep their reservations. Receptions
// whose slots were transmitted during the outage stay unresolved until
// their deadlines pass and the recovery protocol re-derives them.
func (c *Conn) rearmWakes(sess *session) {
	var keys []slotKey
	c.mu.Lock()
	for key, st := range c.slots {
		if !st.resolved && st.wakeGen != sess.gen {
			st.wakeGen = sess.gen
			keys = append(keys, key)
		}
	}
	c.mu.Unlock()
	for _, key := range keys {
		if err := sess.writeWake(key.ch, key.slot); err != nil {
			sess.die(err)
			return
		}
	}
}

// Close disconnects, stops the supervisor, and releases every blocked
// reception. It is idempotent and safe to call at any point of the
// lifecycle, including mid-handshake: cancelling the Conn's context ends
// the live session or the handshake in flight, and the supervisor
// finalizes before the wait returns.
func (c *Conn) Close() error {
	c.cancel()
	c.wg.Wait()
	return nil
}

// Spec returns the decoded service description.
func (c *Conn) Spec() Spec { return c.spec }

// SlotDur returns the service's real-time slot duration.
func (c *Conn) SlotDur() time.Duration {
	c.lc.Lock()
	defer c.lc.Unlock()
	return c.clock.dur
}

// State returns the connection's current lifecycle state.
func (c *Conn) State() State {
	c.lc.Lock()
	defer c.lc.Unlock()
	return c.state
}

// Air returns the locally rebuilt broadcast: the trees, the air indexes,
// and the perfect feeds that answer schedule questions.
func (c *Conn) Air() *broadcast.Air { return c.air }

// FeedS returns dataset S's channel as a network-backed broadcast.Feed.
func (c *Conn) FeedS() broadcast.Feed { return c.feed(0) }

// FeedR returns dataset R's channel as a network-backed broadcast.Feed.
func (c *Conn) FeedR() broadcast.Feed { return c.feed(1) }

func (c *Conn) feed(d int) broadcast.Feed {
	return &remoteFeed{c: c, local: c.air.Feeds[d], ch: uint8(c.air.ChannelOf(d))}
}

// LiveSlot returns the slot currently on air by the client's clock.
func (c *Conn) LiveSlot() int64 {
	c.lc.Lock()
	defer c.lc.Unlock()
	return c.clock.slotAt(time.Now())
}

// NextIssueSlot returns a safe slot to issue a new query at: far enough
// past the live slot that every first WAKE reaches the server before the
// slot is transmitted.
func (c *Conn) NextIssueSlot() int64 { return c.LiveSlot() + issueMargin }

// Stats snapshots the reception counters.
func (c *Conn) Stats() NetStats {
	return NetStats{
		BytesRead:     c.bytesRead.Load(),
		FramesRead:    c.framesRead.Load(),
		PreambleBytes: c.preambleBytes,
		ResumeBytes:   c.resumeBytes.Load(),
		FrameSize:     c.frameSize,
		Reconnects:    c.reconnects.Load(),
		ResumedWarm:   c.resumedWarm.Load(),
		HeartbeatRTT:  time.Duration(c.hbRTT.Load()),
	}
}

// Err reports the connection's health: nil while LIVE, a transient
// *DegradedError while an outage is being reconnected, and the sticking
// terminal error (a *DesyncError, *SpecChangeError, exhausted-reconnect
// *DegradedError, ErrServerClosed, or the Close sentinel) once CLOSED.
func (c *Conn) Err() error {
	c.lc.Lock()
	defer c.lc.Unlock()
	if c.fatalErr != nil {
		return c.fatalErr
	}
	switch c.state {
	case StateDegraded, StateResuming:
		return &DegradedError{State: c.state, Attempt: c.attempt, Err: c.degradedErr}
	}
	return nil
}

// slotDeadline computes the give-up time for a reception of slot t:
// grace past the slot's scheduled end — or, when the slot is already in
// the wall-time past (the query's virtual timeline lags real time and
// the server replays the frame from its reception buffer), grace past
// now, so a replayed reception gets a full round trip instead of timing
// out instantly. It also returns the live session, read in the same
// lifecycle-lock acquisition as the clock.
func (c *Conn) slotDeadline(t int64) (time.Time, *session) {
	c.lc.Lock()
	deadline := c.clock.at(t + 1).Add(c.cfg.Grace)
	sess := c.sess
	c.lc.Unlock()
	if now := time.Now(); deadline.Before(now) {
		deadline = now.Add(c.cfg.Grace)
	}
	return deadline, sess
}

// receive blocks until slot t of physical channel ch resolves: the frame
// arrives (nil fault or FaultCorrupt), the deadline passes (FaultLost), or
// the connection dies terminally. It subscribes the slot on first use —
// the WAKE is the doze/wake schedule entry — and between the WAKE and the
// delivery the caller is genuinely asleep: parked on a recycled waiter,
// with its deadline on the Conn's one deadline heap instead of a timer of
// its own, and nothing is read on its behalf. During an outage the
// subscription is parked (re-armed on resume); a reception that straddles
// the outage simply times out into FaultLost and re-enters the recovery
// protocol. In steady state a reception allocates nothing.
func (c *Conn) receive(ch uint8, t int64) *broadcast.PageFault {
	deadline, sess := c.slotDeadline(t)
	key := slotKey{ch: ch, slot: t}
	c.mu.Lock()
	if c.final {
		c.mu.Unlock()
		return &broadcast.PageFault{Slot: t, Kind: broadcast.FaultLost}
	}
	st := c.slots[key]
	if st == nil {
		st = c.newState()
		c.slots[key] = st
	}
	if st.resolved {
		// Another query downloaded this slot: the shared medium delivered
		// one frame for every listener.
		fault := st.fault
		c.mu.Unlock()
		return fault
	}
	if st.deadline.Before(deadline) {
		st.deadline = deadline
	}
	needWake := st.wakeGen != sess.gen
	if needWake {
		st.wakeGen = sess.gen
	}
	w := c.park(st, deadline)
	c.mu.Unlock()
	if needWake {
		if err := sess.writeWake(ch, t); err != nil {
			// The stream just died under us: hand the session to the
			// supervisor and let this reception ride its deadline.
			sess.die(err)
		}
	}
	<-w.wake
	c.mu.Lock()
	lost, fault := w.lost, w.fault
	w.fault = nil
	c.freeWaiters = append(c.freeWaiters, w)
	c.mu.Unlock()
	if lost {
		return &broadcast.PageFault{Slot: t, Kind: broadcast.FaultLost}
	}
	return fault
}

// newState takes a subscription state from the free list. The caller
// holds c.mu.
func (c *Conn) newState() *slotState {
	n := len(c.freeStates)
	if n == 0 {
		return &slotState{}
	}
	st := c.freeStates[n-1]
	c.freeStates[n-1] = nil
	c.freeStates = c.freeStates[:n-1]
	return st
}

// park parks one reception on st until deadline: it takes a waiter from
// the free list, queues its deadline, and kicks keepTime when that
// deadline is the new earliest. The caller holds c.mu.
func (c *Conn) park(st *slotState, deadline time.Time) *waiter {
	var w *waiter
	if n := len(c.freeWaiters); n > 0 {
		w = c.freeWaiters[n-1]
		c.freeWaiters[n-1] = nil
		c.freeWaiters = c.freeWaiters[:n-1]
	} else {
		w = &waiter{wake: make(chan struct{}, 1)}
	}
	w.gen++
	w.st, w.done, w.lost = st, false, false
	st.waiters = append(st.waiters, w)
	heapx.Push(&c.deadlines, deadlineEntry{at: deadline, w: w, gen: w.gen}, deadlineLess)
	if c.deadlines[0].w == w {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	return w
}

// settle resolves st with fault and hands the outcome to every reception
// parked on it. The caller holds c.mu.
//
//tnn:noalloc
func (c *Conn) settle(st *slotState, fault *broadcast.PageFault) {
	st.resolved, st.fault = true, fault
	for i, w := range st.waiters {
		w.done, w.fault, w.st = true, fault, nil
		w.wake <- struct{}{} // the use's one token: never blocks
		st.waiters[i] = nil
	}
	st.waiters = st.waiters[:0]
}

// resolve is deliver's hand-off: the first frame for key settles its
// subscription, if the slot is subscribed and still open.
//
//tnn:noalloc
func (c *Conn) resolve(key slotKey, fault *broadcast.PageFault) {
	c.mu.Lock()
	if st := c.slots[key]; st != nil && !st.resolved {
		c.settle(st, fault)
	}
	c.mu.Unlock()
}

// deliver resolves a received frame buffer against the subscription map.
// It keeps nothing of buf, so readers decode from a reused buffer.
func (c *Conn) deliver(buf []byte) {
	f, err := DecodeFrame(buf)
	var fault *broadcast.PageFault
	if err != nil {
		var fe *FrameError
		if !errors.As(err, &fe) || fe.Reason != FrameChecksum {
			return // structurally foreign bytes: not a reception at all
		}
		// The header survived, the payload is damaged: a FaultCorrupt
		// reception attributed to the slot the header names.
		fault = &broadcast.PageFault{Slot: f.Slot, Kind: broadcast.FaultCorrupt}
	}
	c.framesRead.Add(1)
	if int(f.Channel) >= c.air.Channels() {
		return
	}
	if fault == nil {
		// Schedule-truth check: the frame must carry exactly the page the
		// local air index says is on air at this slot.
		pg, d := c.air.PageOn(int(f.Channel), f.Slot)
		wantRef := uint32(pg.NodeID)
		var wantSeq uint16
		if pg.Kind == broadcast.DataPage {
			wantRef = uint32(pg.ObjectID)
			wantSeq = uint16(pg.Seq)
		}
		if pg.Kind != f.Kind || wantRef != f.Ref || wantSeq != f.Seq {
			desync := &DesyncError{
				Channel: uint8(d), Physical: f.Channel, Slot: f.Slot,
				WantKind: pg.Kind, WantRef: wantRef,
				GotKind: f.Kind, GotRef: f.Ref,
			}
			// Terminal: kill the session with the desync so the
			// supervisor finalizes (resolving all pending receptions).
			if sess := c.curSession(); sess != nil {
				sess.die(desync)
			}
			return
		}
	}
	c.resolve(slotKey{ch: f.Channel, slot: f.Slot}, fault)
}

// udpReader drains the UDP socket until finalize closes it (the socket
// and its announced port survive reconnects); its byte counter is the
// real-wire tune-in measurement.
func (c *Conn) udpReader() {
	defer c.wg.Done()
	buf := make([]byte, c.frameSize+256)
	for {
		n, err := c.udp.Read(buf)
		if n > 0 {
			c.bytesRead.Add(int64(n))
			c.deliver(buf[:n])
		}
		if err != nil {
			// The UDP socket only dies in finalize.
			return
		}
	}
}

// readLoop drains one session's control stream: length-prefixed messages
// discriminated by their first byte — frames (TCP transport), PONG
// heartbeat echoes, and the server's GOODBYE drain notice.
func (s *session) readLoop() {
	defer s.wg.Done()
	c := s.c
	var lenBuf [4]byte
	buf := make([]byte, c.frameSize+256)
	for {
		if _, err := io.ReadFull(s.tcp, lenBuf[:]); err != nil {
			s.die(err)
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > uint32(len(buf)) {
			s.die(&FrameError{Part: "frame", Reason: FrameBadLength, Got: int(n), Want: c.frameSize})
			return
		}
		body := buf[:n]
		if _, err := io.ReadFull(s.tcp, body); err != nil {
			s.die(err)
			return
		}
		switch body[0] {
		case FrameMagic:
			c.bytesRead.Add(int64(4 + n))
			c.deliver(body)
		case pongOp:
			if len(body) == pongSize {
				now := time.Now()
				if rtt := now.UnixNano() - int64(binary.BigEndian.Uint64(body[1:])); rtt > 0 {
					c.hbRTT.Store(rtt)
				}
				s.lastPong.Store(now.UnixNano())
			}
		case goodbyeOp:
			resume, _, err := decodeGoodbye(body)
			if err != nil {
				s.die(err)
				return
			}
			if resume {
				s.die(errServerDraining)
			} else {
				s.die(ErrServerClosed)
			}
			return
		default:
			s.die(&FrameError{Part: "frame", Reason: FrameBadMagic, Got: int(body[0]), Want: FrameMagic})
			return
		}
	}
}

// heartbeat probes the control stream's liveness: a PING every interval,
// and a session death after miss intervals without any PONG — the
// bounded-time detector for silent TCP death and stalled servers.
func (s *session) heartbeat(interval time.Duration, miss int) {
	defer s.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-ticker.C:
			if age := now.UnixNano() - s.lastPong.Load(); age > int64(interval)*int64(miss) {
				s.die(fmt.Errorf("netfeed: heartbeat timeout: no PONG in %v", time.Duration(age)))
				return
			}
			if err := s.writePing(uint64(now.UnixNano())); err != nil {
				s.die(err)
				return
			}
		}
	}
}

// keepTime is the one timer behind every reception. It services the
// deadline heap — every parked reception whose deadline passed wakes with
// FaultLost — and once every sweepEvery evicts settled receptions onto
// the free list, bounding the subscription map over long sessions. It
// sleeps until the earliest queued deadline or the next sweep, whichever
// comes first, and park kicks it awake when a new deadline is earlier
// still.
func (c *Conn) keepTime() {
	defer c.wg.Done()
	timer := time.NewTimer(sweepEvery)
	defer timer.Stop()
	nextSweep := time.Now().Add(sweepEvery)
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-timer.C:
		case <-c.kick:
		}
		now := time.Now()
		sweep := !now.Before(nextSweep)
		var horizon int64
		if sweep {
			c.lc.Lock()
			horizon = c.clock.slotAt(now.Add(-4*c.cfg.Grace)) - 1
			c.lc.Unlock()
			nextSweep = now.Add(sweepEvery)
		}
		c.mu.Lock()
		c.expire(now)
		if sweep {
			c.evict(now, horizon)
		}
		next := nextSweep
		if len(c.deadlines) > 0 && c.deadlines[0].at.Before(next) {
			next = c.deadlines[0].at
		}
		c.mu.Unlock()
		timer.Reset(next.Sub(now))
	}
}

// expire pops the deadline heap down to its first live, unexpired entry:
// entries of waiters resolved since are dropped, and each waiter whose
// deadline passed wakes lost. The caller holds c.mu.
func (c *Conn) expire(now time.Time) {
	for len(c.deadlines) > 0 {
		e := c.deadlines[0]
		live := e.w.gen == e.gen && !e.w.done
		if live && e.at.After(now) {
			return
		}
		heapx.Pop(&c.deadlines, deadlineLess)
		if !live {
			continue
		}
		w, st := e.w, e.w.st
		for i, x := range st.waiters {
			if x == w {
				last := len(st.waiters) - 1
				st.waiters[i] = st.waiters[last]
				st.waiters[last] = nil
				st.waiters = st.waiters[:last]
				break
			}
		}
		w.done, w.lost, w.st = true, true, nil
		w.wake <- struct{}{} // the use's one token: never blocks
	}
}

// evict recycles receptions safely in the past. Resolved ones older than
// horizon have no future reader; unresolved ones go only once every
// waiter's deadline passed a full grace ago (a replayed past slot is
// subscribed long after its air time, so slot age alone proves nothing).
// The caller holds c.mu.
func (c *Conn) evict(now time.Time, horizon int64) {
	for key, st := range c.slots {
		if len(st.waiters) > 0 {
			continue
		}
		if st.resolved && key.slot < horizon ||
			!st.resolved && !st.deadline.IsZero() && now.After(st.deadline.Add(c.cfg.Grace)) {
			delete(c.slots, key)
			*st = slotState{waiters: st.waiters[:0]}
			c.freeStates = append(c.freeStates, st)
		}
	}
}

// remoteFeed adapts one dataset's side of a Conn to broadcast.Feed: all
// schedule truth comes from the locally rebuilt feed; Fault and ReadNode
// are real receptions on the physical channel ch.
type remoteFeed struct {
	c     *Conn
	local broadcast.Feed
	ch    uint8
}

var _ broadcast.Feed = (*remoteFeed)(nil)

// Index implements Feed.
func (f *remoteFeed) Index() broadcast.AirIndex { return f.local.Index() }

// PageAt implements Feed.
func (f *remoteFeed) PageAt(t int64) broadcast.Page { return f.local.PageAt(t) }

// NextNodeArrival implements Feed.
func (f *remoteFeed) NextNodeArrival(nodeID int, after int64) int64 {
	return f.local.NextNodeArrival(nodeID, after)
}

// NextRootArrival implements Feed.
func (f *remoteFeed) NextRootArrival(after int64) int64 {
	return f.local.NextRootArrival(after)
}

// NextObjectArrival implements Feed.
func (f *remoteFeed) NextObjectArrival(objectID int, after int64) int64 {
	return f.local.NextObjectArrival(objectID, after)
}

// Fault implements Feed: it is the blocking reception primitive. The
// caller dozes (blocks, reading nothing) until the slot's frame arrives on
// the wire, and the outcome maps onto the fault taxonomy — nil for a clean
// frame, FaultCorrupt for a failed checksum, FaultLost for a deadline
// miss or a dead connection.
func (f *remoteFeed) Fault(t int64) *broadcast.PageFault {
	return f.c.receive(f.ch, t)
}

// ReadNode implements Feed: a real reception followed by the local tree
// lookup. The payload itself is never parsed: the frame CRC vouches for
// its integrity, and the desync check that the frame's kind, ref and seq
// name the page the local schedule puts on air at that slot.
func (f *remoteFeed) ReadNode(t int64) (*rtree.Node, *broadcast.PageFault) {
	if pf := f.Fault(t); pf != nil {
		return nil, pf
	}
	return f.local.ReadNode(t)
}
