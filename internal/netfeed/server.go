package netfeed

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"tnnbcast/internal/broadcast"
)

// Server replays a broadcast program onto real sockets: one frame per slot
// per physical channel, paced by the slot clock, looping the cycle
// indefinitely. It transmits a slot only to the clients whose doze/wake
// schedule (WAKE subscriptions) covers it — the unicast fan-out stand-in
// for a broadcast medium with dozing radios — so loopback byte counts on
// the client side measure true tune-in.
type ServerConfig struct {
	// Spec is the broadcast service to put on air.
	Spec Spec
	// SlotDur is the real-time duration of one broadcast slot. It must be
	// positive; DefaultSlotDur is a sensible loopback value.
	SlotDur time.Duration
	// Faults optionally injects the deterministic fault model into the
	// transmissions: a lost slot is simply never sent (every subscriber
	// times out), a corrupt slot is sent with a flipped payload bit (every
	// subscriber's frame CRC fails). The air is built with this model the
	// way the in-process WithFaults builds it, so a lossy wire run is
	// comparable to the equivalent simulation.
	Faults broadcast.FaultModel
	// RestartHint, when set, marks the GOODBYE drain notice with the
	// resume flag: "this service intends to come back — reconnect and
	// resume, don't give up". Rolling restarts set it; a final shutdown
	// leaves it clear so clients fail terminally with ErrServerClosed.
	RestartHint bool
}

// DefaultSlotDur is the default slot pacing for loopback services.
const DefaultSlotDur = 2 * time.Millisecond

// payloadImage is one precomputed cycle-relative slot payload. Relative
// pointer delays are cycle-position invariant, so one image per
// cycle-relative slot serves every repetition of the cycle.
type payloadImage struct {
	kind broadcast.PageKind
	ref  uint32
	seq  uint16
	img  []byte
}

// wakeKey addresses one (physical channel, absolute slot) transmission.
type wakeKey struct {
	ch   uint8
	slot int64
}

// wireBuf is one length-prefixed control-stream message: a 4-byte
// big-endian length, then the body (a sealed frame or a PONG). A frame's
// UDP datagram is the body alone. wireBufs are recycled through the
// server's pool: refs counts the holders — the sealer until its fan-out
// ends, plus every TCP outbox that queued it until clientWriter has
// written it — and the last release returns the buffer to the pool.
type wireBuf struct {
	b    []byte
	refs atomic.Int32
}

// body returns the message after its length prefix: the frame itself,
// as a UDP datagram carries it.
func (m *wireBuf) body() []byte { return m.b[4:] }

// serverClient is one connected listener. Every client — UDP or TCP
// transport — owns a TCP control outbox: frames ride it for TCP clients,
// and PONG echoes plus the GOODBYE drain notice ride it for everyone.
type serverClient struct {
	transport Transport
	udpAddr   netip.AddrPort
	tcp       net.Conn
	out       chan *wireBuf
	closed    chan struct{}
	closeOnce sync.Once
	draining  chan struct{}
	drainOnce sync.Once
	goodbye   []byte // the drain notice, set before draining closes
}

func (cl *serverClient) close() {
	cl.closeOnce.Do(func() {
		close(cl.closed)
		cl.tcp.Close()
	})
}

// drain hands the client's writer the GOODBYE: the writer flushes
// whatever is queued, writes the GOODBYE last and closes the stream. The
// GOODBYE bypasses the outbox, so a full outbox cannot drop it.
func (cl *serverClient) drain(goodbye []byte) {
	cl.drainOnce.Do(func() {
		cl.goodbye = goodbye
		close(cl.draining)
	})
}

// Server is a running broadcast service. Create with NewServer, bind and
// start with Start, stop with Close.
type Server struct {
	cfg      ServerConfig
	air      *broadcast.Air
	images   [][]payloadImage
	specBody []byte
	digest   uint64

	clock slotClock
	ln    net.Listener
	udp   *net.UDPConn

	mu          sync.Mutex
	wakes       map[wakeKey][]*serverClient
	freeSubs    [][]*serverClient // emptied wakes lists, kept for their capacity
	clients     map[*serverClient]struct{}
	sentThrough int64

	subs [][]*serverClient // transmitSlot's per-channel subscribers (transmit loop only)

	poolMu sync.Mutex
	pool   []*wireBuf

	// outboxDrops counts messages a full control outbox refused.
	outboxDrops atomic.Int64

	// ctx is the service's lifetime: Close cancels it, which stops the
	// pacer and aborts every HELLO still in flight.
	ctx       context.Context
	cancel    context.CancelFunc
	txDone    chan struct{}
	closeOnce sync.Once
	started   bool
	wg        sync.WaitGroup
}

// NewServer checks and builds the spec as New does (Spec.build returns
// the check's refusal or BuildAir's cycle error), and precomputes every
// cycle-relative slot's page image plus the preamble spec body and its
// warm-resume digest. The returned server is not yet on the air — call
// Start.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.SlotDur <= 0 {
		cfg.SlotDur = DefaultSlotDur
	}
	air, err := cfg.Spec.build(cfg.Faults)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:     cfg,
		air:     air,
		wakes:   make(map[wakeKey][]*serverClient),
		subs:    make([][]*serverClient, air.Channels()),
		clients: make(map[*serverClient]struct{}),
		txDone:  make(chan struct{}),
	}
	srv.ctx, srv.cancel = context.WithCancel(context.Background())
	srv.specBody = appendSpecBody(nil, cfg.Spec)
	srv.digest = specDigest(srv.specBody)
	pageImage := broadcast.PageImageSize(cfg.Spec.Params)
	srv.images = make([][]payloadImage, air.Channels())
	for c := range srv.images {
		imgs, err := air.EncodeCycle(c)
		if err != nil {
			return nil, fmt.Errorf("netfeed: channel %d: %w", c, err)
		}
		srv.images[c] = make([]payloadImage, len(imgs))
		for rel, img := range imgs {
			pg, _ := air.PageOn(c, air.Phase(c)+int64(rel))
			pi := payloadImage{kind: pg.Kind, ref: uint32(pg.NodeID), img: img}
			if pg.Kind == broadcast.DataPage {
				pi.ref, pi.seq = uint32(pg.ObjectID), uint16(pg.Seq)
				pi.img = dataPayload(make([]byte, pageImage), pi.ref, pi.seq)
			}
			srv.images[c][rel] = pi
		}
	}
	return srv, nil
}

// Start binds the TCP listener on addr (e.g. "127.0.0.1:0" for an
// ephemeral loopback port), opens the UDP fan-out socket, starts the slot
// clock at the current instant, and begins transmitting. Addr reports the
// bound address.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	udp, err := net.ListenUDP("udp", nil)
	if err != nil {
		ln.Close()
		return err
	}
	s.ln, s.udp = ln, udp
	s.clock = slotClock{epoch: time.Now(), dur: s.cfg.SlotDur}
	s.sentThrough = -1
	s.started = true
	s.wg.Add(2)
	go s.acceptLoop()
	go s.transmitLoop()
	return nil
}

// Addr returns the TCP address clients connect to.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Digest returns the warm-resume key of the broadcast on air: the spec
// digest carried in every preamble and GOODBYE.
func (s *Server) Digest() uint64 { return s.digest }

// Close drains and stops the broadcast: the accept loop stops, the
// transmit loop finishes every slot already due, each connected client
// receives a GOODBYE (with the restart-resume hint from the config)
// flushed ahead of the stream teardown, and every server goroutine is
// joined. It is idempotent, and concurrent Closes all wait for the full
// shutdown.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel() // also aborts every HELLO in flight (see handleConn)
		if !s.started {
			return
		}
		s.ln.Close()
		// Let the pacer flush every slot already due, so subscribers of
		// the current slot get their frames instead of a cliff.
		<-s.txDone
		goodbye := appendGoodbye(make([]byte, 4, 4+goodbyeSize), s.cfg.RestartHint, s.digest)
		binary.BigEndian.PutUint32(goodbye[:4], goodbyeSize)
		s.mu.Lock()
		for cl := range s.clients {
			cl.drain(goodbye)
		}
		s.mu.Unlock()
		s.udp.Close()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn runs one client's control stream: HELLO in, PREAMBLE out
// (the warm form when the HELLO offers a digest that still names the live
// broadcast), then WAKE subscriptions and PING heartbeats until the
// client leaves.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	hello := make([]byte, HelloSize)
	// A client blocked mid-HELLO must not hold Close hostage for the
	// handshake deadline: the server's cancellation closes the socket.
	stop := context.AfterFunc(s.ctx, func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := io.ReadFull(conn, hello)
	if !stop() || err != nil {
		conn.Close()
		return
	}
	transport, udpPort, resume, digest, err := decodeHello(hello)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	cl := &serverClient{
		transport: transport, tcp: conn,
		out:      make(chan *wireBuf, 256),
		closed:   make(chan struct{}),
		draining: make(chan struct{}),
	}
	if transport == TransportUDP {
		remote, err := netip.ParseAddrPort(conn.RemoteAddr().String())
		if err != nil {
			conn.Close()
			return
		}
		cl.udpAddr = netip.AddrPortFrom(remote.Addr().Unmap(), uint16(udpPort))
	}

	s.mu.Lock()
	draining := s.ctx.Err() != nil
	if !draining {
		s.clients[cl] = struct{}{}
	}
	live := s.clock.slotAt(time.Now())
	s.mu.Unlock()
	if draining {
		conn.Close()
		return
	}

	// The preamble is written synchronously, before the outbox writer
	// starts, so nothing can interleave with it on the stream.
	var blob []byte
	if resume && digest == s.digest {
		blob = appendWarmPreamble(make([]byte, 4), s.digest, s.cfg.SlotDur, live)
	} else {
		blob = appendPreambleParts(make([]byte, 4), s.specBody, s.digest, s.cfg.SlotDur, live)
	}
	binary.BigEndian.PutUint32(blob[:4], uint32(len(blob)-4))
	if _, err := conn.Write(blob); err != nil {
		s.dropClient(cl)
		return
	}
	s.wg.Add(1)
	go s.clientWriter(cl)

	buf := make([]byte, wakeSize)
	for {
		if _, err := io.ReadFull(conn, buf[:1]); err != nil {
			break
		}
		switch buf[0] {
		case wakeOp:
			if _, err := io.ReadFull(conn, buf[1:wakeSize]); err != nil {
				s.dropClient(cl)
				return
			}
			ch, slot, err := decodeWake(buf[:wakeSize])
			if err != nil || int(ch) >= s.air.Channels() {
				s.dropClient(cl)
				return // protocol violation: drop the client
			}
			s.handleWake(cl, ch, slot)
		case pingOp:
			if _, err := io.ReadFull(conn, buf[1:pingSize]); err != nil {
				s.dropClient(cl)
				return
			}
			pong := s.getBuf()
			pong.b = appendPong(pong.b[:4], binary.BigEndian.Uint64(buf[1:pingSize]))
			binary.BigEndian.PutUint32(pong.b[:4], pongSize)
			s.enqueue(cl, pong)
		default:
			s.dropClient(cl)
			return // protocol violation: drop the client
		}
	}
	s.dropClient(cl)
}

// handleWake registers one doze/wake schedule entry, or replays the frame
// immediately when the slot already went on air. A slot's first entry
// takes a subscriber list transmitSlot emptied earlier, so registration
// allocates nothing once the lists have grown to the fan-out.
func (s *Server) handleWake(cl *serverClient, ch uint8, slot int64) {
	s.mu.Lock()
	sent := s.sentThrough
	if slot > sent {
		key := wakeKey{ch: ch, slot: slot}
		subs, ok := s.wakes[key]
		if !ok && len(s.freeSubs) > 0 {
			subs = s.freeSubs[len(s.freeSubs)-1]
			s.freeSubs = s.freeSubs[:len(s.freeSubs)-1]
		}
		s.wakes[key] = append(subs, cl)
	}
	s.mu.Unlock()
	if slot <= sent {
		// The slot already went on air. A query's virtual timeline can
		// lag wall time — the query executor serializes the two
		// channels' downloads, so channel R's clock stands still while
		// channel S's receptions consume real seconds — and a WAKE for a
		// slot that has already been transmitted is the normal result,
		// not a protocol error. The frame is a pure function of
		// (config, channel, slot), so the server replays it from the
		// modeled reception buffer; the client still reads only the
		// frames it subscribed to, and injected faults still apply — a
		// lost slot stays lost no matter when it is asked for. The
		// replay runs on this client's goroutine, so it seals its own
		// buffer rather than the transmit loop's.
		if frame := s.frameFor(int(ch), slot); frame != nil {
			s.sendTo(cl, frame)
			s.release(frame)
		}
	}
}

// clientWriter drains one client's control-stream outbox, releasing each
// message once it is written. A slow client's overflow is dropped at
// enqueue time (loss, like any radio shadow); a write error ends the
// client. On drain it flushes everything queued, writes the GOODBYE last,
// and then closes the stream.
func (s *Server) clientWriter(cl *serverClient) {
	defer s.wg.Done()
	defer cl.close()
	for {
		select {
		case m := <-cl.out:
			_, err := cl.tcp.Write(m.b)
			s.release(m)
			if err != nil {
				return
			}
		case <-cl.closed:
			return
		case <-cl.draining:
			for {
				select {
				case m := <-cl.out:
					_, err := cl.tcp.Write(m.b)
					s.release(m)
					if err != nil {
						return
					}
				default:
					cl.tcp.Write(cl.goodbye) // the stream closes next either way
					return
				}
			}
		}
	}
}

// enqueue hands one reference to msg to a client's control outbox. A full
// outbox drops it (backpressure is loss) and counts the drop in
// OutboxDrops: to the client it looks the same as loss on the air.
//
//tnn:noalloc
func (s *Server) enqueue(cl *serverClient, msg *wireBuf) {
	select {
	case <-cl.closed:
		s.release(msg)
	case cl.out <- msg:
	default:
		s.outboxDrops.Add(1)
		s.release(msg)
	}
}

// OutboxDrops returns how many control-stream messages (TCP frames and
// PONGs) were dropped because a client's outbox was full.
func (s *Server) OutboxDrops() int64 { return s.outboxDrops.Load() }

// getBuf takes a message buffer from the pool, holding one reference; an
// empty pool allocates one large enough for a framed slot.
func (s *Server) getBuf() *wireBuf {
	s.poolMu.Lock()
	var m *wireBuf
	if n := len(s.pool); n > 0 {
		m = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	}
	s.poolMu.Unlock()
	if m == nil {
		m = &wireBuf{b: make([]byte, 0, 4+FrameSize(s.cfg.Spec.Params))}
	}
	m.refs.Store(1)
	return m
}

// release drops one reference to m; the last one returns it to the pool.
//
//tnn:noalloc
func (s *Server) release(m *wireBuf) {
	if m.refs.Add(-1) != 0 {
		return
	}
	s.poolMu.Lock()
	s.pool = append(s.pool, m)
	s.poolMu.Unlock()
}

func (s *Server) dropClient(cl *serverClient) {
	cl.close()
	s.mu.Lock()
	delete(s.clients, cl)
	s.mu.Unlock()
}

// transmitLoop paces the broadcast: at every tick it transmits all slots
// whose windows have completed since the last tick, so a stalled scheduler
// catches up instead of drifting. On shutdown it flushes every slot
// already due — the drain finishes the current slot — then signals txDone.
func (s *Server) transmitLoop() {
	defer s.wg.Done()
	defer close(s.txDone)
	ticker := time.NewTicker(s.cfg.SlotDur)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			s.catchUp(time.Now())
			return
		case now := <-ticker.C:
			s.catchUp(now)
		}
	}
}

// catchUp transmits every slot due at wall time now.
func (s *Server) catchUp(now time.Time) {
	target := s.clock.slotAt(now)
	s.mu.Lock()
	from := s.sentThrough + 1
	s.mu.Unlock()
	for t := from; t <= target; t++ {
		s.transmitSlot(t)
	}
}

// transmitSlot sends slot t's frame on every physical channel to the
// clients awake for it. The slot is marked sent BEFORE fan-out, so a WAKE
// racing the transmission is dropped (the client missed the slot) rather
// than parked forever. Each channel's frame is sealed once and reaches
// every subscriber from the same buffer; the emptied subscriber lists go
// back to handleWake for later slots.
//
//tnn:noalloc
func (s *Server) transmitSlot(t int64) {
	s.mu.Lock()
	s.sentThrough = t
	for c := range s.subs {
		key := wakeKey{ch: uint8(c), slot: t}
		s.subs[c] = s.wakes[key]
		delete(s.wakes, key)
	}
	s.mu.Unlock()

	for c, clients := range s.subs {
		if len(clients) == 0 {
			continue
		}
		// A lost slot has no frame and is never sent: its subscribers
		// time out.
		if frame := s.frameFor(c, t); frame != nil {
			for _, cl := range clients {
				s.sendTo(cl, frame)
			}
			s.release(frame)
		}
		clear(clients)
		s.mu.Lock()
		s.freeSubs = append(s.freeSubs, clients[:0])
		s.mu.Unlock()
		s.subs[c] = nil
	}
}

// frameFor seals the frame of (channel c, absolute slot t) into a pooled
// buffer behind a reserved TCP length prefix, applying the injected fault
// pattern: nil for a lost slot, a frame with a damaged payload (so the
// receiver's CRC check fails) for a corrupt one. The caller holds the one
// reference and releases it when its fan-out ends. The frame is a pure
// function of (config, c, t) — which is what allows late WAKEs to be
// answered after the slot's transmission.
//
//tnn:noalloc
func (s *Server) frameFor(c int, t int64) *wireBuf {
	fault := s.air.Fault(c, t)
	if fault != nil && fault.Kind == broadcast.FaultLost {
		return nil
	}
	pi := s.images[c][s.air.CyclePos(c, t)]
	m := s.getBuf()
	m.b = AppendFrame(m.b[:4], Frame{
		Channel: uint8(c), Kind: pi.kind, Slot: t, Ref: pi.ref, Seq: pi.seq, Payload: pi.img,
	})
	binary.BigEndian.PutUint32(m.b[:4], uint32(len(m.b)-4))
	if fault != nil && fault.Kind == broadcast.FaultCorrupt {
		m.b[4+FrameHeaderSize] ^= 0x01
	}
	return m
}

// sendTo delivers one sealed frame to one client over its transport: a
// UDP client gets the frame as one datagram; a TCP client's outbox takes
// its own reference to the whole buffer, length prefix included, so one
// sealed frame can wait in many outboxes. A full TCP outbox drops the
// frame — backpressure is loss, like any radio shadow.
//
//tnn:noalloc
func (s *Server) sendTo(cl *serverClient, frame *wireBuf) {
	select {
	case <-cl.closed:
		return
	default:
	}
	if cl.transport == TransportUDP {
		s.udp.WriteToUDPAddrPort(frame.body(), cl.udpAddr)
		return
	}
	frame.refs.Add(1)
	s.enqueue(cl, frame)
}
