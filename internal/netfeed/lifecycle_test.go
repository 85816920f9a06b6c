// Lifecycle unit tests: state machine labels, backoff arithmetic,
// terminal-error classification, Close idempotency (client and server,
// including Close racing a handshake), heartbeat death detection, and the
// GOODBYE drain notice — each proven against either a real loopback
// server or a scripted fake that can go silent on purpose.
package netfeed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateConnecting: "connecting",
		StateLive:       "live",
		StateDegraded:   "degraded",
		StateResuming:   "resuming",
		StateClosed:     "closed",
		State(99):       "State(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int32(s), got, want)
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	const base, cap = 50 * time.Millisecond, 2 * time.Second
	// Deterministic: equal seeds walk equal jitter sequences.
	rngA, rngB := uint64(7), uint64(7)
	for attempt := 0; attempt < 10; attempt++ {
		a := backoffDelay(base, cap, attempt, &rngA)
		b := backoffDelay(base, cap, attempt, &rngB)
		if a != b {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, a, b)
		}
		// Jitter stays within ±25% of the clamped exponential step.
		ideal := base << attempt
		if ideal > cap || ideal <= 0 {
			ideal = cap
		}
		if a < ideal*3/4 || a > ideal*5/4 {
			t.Errorf("attempt %d: delay %v outside ±25%% of %v", attempt, a, ideal)
		}
	}
	// Zero config falls back to the defaults.
	rng := uint64(1)
	if d := backoffDelay(0, 0, 0, &rng); d < DefaultBackoffBase*3/4 || d > DefaultBackoffBase*5/4 {
		t.Errorf("zero-config delay %v not near default base %v", d, DefaultBackoffBase)
	}
}

func TestTerminalErrClassification(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"server closed", ErrServerClosed, true},
		{"server closed wrapped", fmt.Errorf("ctl: %w", ErrServerClosed), true},
		{"conn closed", errConnClosed, true},
		{"draining", errServerDraining, false},
		{"desync", &DesyncError{Channel: 1, Slot: 7}, true},
		{"spec change", &SpecChangeError{OldDigest: 1, NewDigest: 2}, true},
		{"version skew", &FrameError{Part: "preamble", Reason: FrameVersionSkew}, true},
		{"truncated frame", &FrameError{Part: "frame", Reason: FrameTruncated}, false},
		{"socket error", errors.New("read: connection reset"), false},
	} {
		if got := terminalErr(tc.err); got != tc.want {
			t.Errorf("terminalErr(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// snapGoroutines returns the current goroutine count after a settle wait,
// for before/after leak comparisons.
func snapGoroutines() int {
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitGoroutines fails the test when the goroutine count does not settle
// back to the baseline (small slack for runtime helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// startTestServer brings up a real loopback server for lifecycle tests.
func startTestServer(t *testing.T, restartHint bool) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Spec: testSpec(20), SlotDur: 2 * time.Millisecond, RestartHint: restartHint,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv
}

// TestConnCloseIdempotent closes a live connection from several
// goroutines at once: every call must return, the error must be the
// close sentinel, and no goroutine may outlive the connection.
func TestConnCloseIdempotent(t *testing.T) {
	base := snapGoroutines()
	srv := startTestServer(t, false)
	defer srv.Close()

	conn, err := Dial(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := conn.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if conn.State() != StateClosed {
		t.Errorf("state after Close: %v, want closed", conn.State())
	}
	if err := conn.Err(); !errors.Is(err, errConnClosed) {
		t.Errorf("Err after Close: %v, want conn-closed sentinel", err)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestServerCloseIdempotent races two Closes against each other (with a
// live client attached): both must return without panic, and the second
// must observe the drain completed.
func TestServerCloseIdempotent(t *testing.T) {
	base := snapGoroutines()
	srv := startTestServer(t, false)
	conn, err := Dial(srv.Addr().String(), DialConfig{MaxReconnects: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Server.Close deadlocked")
	}
	conn.Close()
	waitGoroutines(t, base)
}

// TestServerClosePendingHandshake opens a raw TCP connection that never
// sends its HELLO, then closes the server: the drain must abort the
// half-open handshake instead of waiting out its read deadline.
func TestServerClosePendingHandshake(t *testing.T) {
	srv := startTestServer(t, false)
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Server.Close hung on a client that never sent its HELLO")
	}
}

// TestGoodbyeTerminal drains a server WITHOUT the restart hint under a
// live client: the GOODBYE must terminate the connection with
// ErrServerClosed instead of spinning the reconnect loop.
func TestGoodbyeTerminal(t *testing.T) {
	srv := startTestServer(t, false)
	defer srv.Close()
	conn, err := Dial(srv.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(conn.Err(), ErrServerClosed) {
		if time.Now().After(deadline) {
			t.Fatalf("GOODBYE never terminated the client: state %v err %v", conn.State(), conn.Err())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if conn.State() != StateClosed {
		t.Errorf("state after terminal GOODBYE: %v, want closed", conn.State())
	}
}

// TestGoodbyeSurvivesFullOutbox closes a server under a TCP client whose
// 256-message outbox is full and whose writer is blocked on the stream:
// the client must still read the GOODBYE, as the last message, instead
// of a bare EOF that would send it into reconnect backoff.
func TestGoodbyeSurvivesFullOutbox(t *testing.T) {
	srv := startTestServer(t, true)
	serverEnd, clientEnd := net.Pipe()
	defer clientEnd.Close()
	cl := &serverClient{
		transport: TransportTCP, tcp: serverEnd,
		out:      make(chan *wireBuf, 256),
		closed:   make(chan struct{}),
		draining: make(chan struct{}),
	}
	pong := func(n int) *wireBuf {
		msg := srv.getBuf()
		msg.b = appendPong(msg.b[:4], uint64(n))
		binary.BigEndian.PutUint32(msg.b[:4], pongSize)
		return msg
	}
	for i := range cap(cl.out) {
		cl.out <- pong(i)
	}
	srv.mu.Lock()
	srv.clients[cl] = struct{}{}
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.clientWriter(cl)
	// The writer takes one message and blocks writing it to the unread
	// pipe; this send refills the outbox behind it.
	cl.out <- pong(cap(cl.out))

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	<-cl.draining // Close has handed out the GOODBYE; now read

	var msgs [][]byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(clientEnd, hdr[:]); err != nil {
			break
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(clientEnd, body); err != nil {
			t.Fatalf("message %d truncated: %v", len(msgs), err)
		}
		msgs = append(msgs, body)
	}
	<-closed
	if want := cap(cl.out) + 2; len(msgs) != want {
		t.Fatalf("client read %d messages, want %d (every queued PONG, then the GOODBYE)", len(msgs), want)
	}
	last := msgs[len(msgs)-1]
	if last[0] != goodbyeOp {
		t.Fatalf("last message op %#x, want the GOODBYE (%#x)", last[0], goodbyeOp)
	}
	resume, digest, err := decodeGoodbye(last)
	if err != nil || !resume || digest != srv.Digest() {
		t.Fatalf("GOODBYE decoded as resume=%v digest=%#x err=%v, want resume with digest %#x",
			resume, digest, err, srv.Digest())
	}
}

// fakeServer is a scripted netfeed endpoint: it answers the first
// handshake correctly and then misbehaves on demand — going silent
// (never PONGing) or black-holing every later handshake.
type fakeServer struct {
	ln     net.Listener
	sp     Spec
	accept int
	mu     sync.Mutex
	conns  []net.Conn
	done   chan struct{}
	wg     sync.WaitGroup
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeServer{ln: ln, sp: testSpec(20), done: make(chan struct{})}
	f.wg.Add(1)
	go f.run()
	t.Cleanup(f.Close)
	return f
}

func (f *fakeServer) Close() {
	select {
	case <-f.done:
	default:
		close(f.done)
	}
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// run services connections: the FIRST gets a valid preamble and then
// total silence (no frames, no PONGs); every later one is black-holed
// mid-handshake (HELLO read, no reply).
func (f *fakeServer) run() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.conns = append(f.conns, conn)
		f.accept++
		n := f.accept
		f.mu.Unlock()
		f.wg.Add(1)
		go func(conn net.Conn, first bool) {
			defer f.wg.Done()
			hello := make([]byte, HelloSize)
			if _, err := io.ReadFull(conn, hello); err != nil {
				return
			}
			if first {
				blob := appendPreamble(make([]byte, 4), f.sp, 2*time.Millisecond, 0)
				binary.BigEndian.PutUint32(blob[:4], uint32(len(blob)-4))
				conn.Write(blob)
			}
			// Silence either way: drain reads, answer nothing.
			io.Copy(io.Discard, conn)
		}(conn, n == 1)
	}
}

// TestHeartbeatDetectsSilentPeer connects to a fake server that
// handshakes and then never answers another byte — the TCP socket stays
// healthy, so only the heartbeat can notice. The client must declare the
// session dead within the miss budget, burn its reconnect attempts
// against the black-holed handshakes, and finish CLOSED with a terminal
// *DegradedError.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time heartbeat windows")
	}
	fake := newFakeServer(t)
	conn, err := Dial(fake.ln.Addr().String(), DialConfig{
		Transport:      TransportTCP,
		Heartbeat:      30 * time.Millisecond,
		HeartbeatMiss:  2,
		ConnectTimeout: 200 * time.Millisecond,
		MaxReconnects:  2,
		BackoffBase:    20 * time.Millisecond,
		BackoffMax:     50 * time.Millisecond,
		JitterSeed:     1,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	deadline := time.Now().Add(10 * time.Second)
	for conn.State() != StateClosed {
		if time.Now().After(deadline) {
			t.Fatalf("silent peer never became terminal: state %v err %v", conn.State(), conn.Err())
		}
		time.Sleep(10 * time.Millisecond)
	}
	var de *DegradedError
	if err := conn.Err(); !errors.As(err, &de) {
		t.Fatalf("terminal error %T %v, want *DegradedError", err, err)
	}
	if de.State != StateClosed || de.Attempt < 2 {
		t.Errorf("terminal DegradedError not populated: %+v", de)
	}
	if !strings.Contains(de.Err.Error(), "heartbeat") && de.Attempt == 0 {
		t.Errorf("cause does not reflect the heartbeat death: %v", de.Err)
	}
}

// TestCloseDuringResumeHandshake kills the live session (the fake server
// drops it) so the client enters the reconnect path, where every
// handshake black-holes — then calls Close while an attempt is in
// flight. Close must cut the handshake short and return well before the
// connect timeout expires.
func TestCloseDuringResumeHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time reconnect windows")
	}
	base := snapGoroutines()
	fake := newFakeServer(t)
	conn, err := Dial(fake.ln.Addr().String(), DialConfig{
		Transport:      TransportTCP,
		Heartbeat:      -1, // only the socket drop signals death
		ConnectTimeout: 30 * time.Second,
		MaxReconnects:  100,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		JitterSeed:     1,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	// Drop the live session: the client reconnects into a handshake that
	// will never answer (and would otherwise block for 30s).
	fake.mu.Lock()
	fake.conns[0].Close()
	fake.mu.Unlock()
	time.Sleep(100 * time.Millisecond) // let a resume attempt get in flight

	done := make(chan struct{})
	start := time.Now()
	go func() { conn.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind an in-flight resume handshake")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Close took %v, want prompt abort of the handshake", elapsed)
	}
	fake.Close()
	waitGoroutines(t, base)
}

// TestCloseDuringBackoff kills the live session of a connection whose
// reconnect backoff lasts seconds, waits until the supervisor sleeps in
// DEGRADED, and closes: Close must end the backoff wait at once, leave
// the close sentinel as the terminal error, and leak no goroutine.
func TestCloseDuringBackoff(t *testing.T) {
	base := snapGoroutines()
	fake := newFakeServer(t)
	conn, err := Dial(fake.ln.Addr().String(), DialConfig{
		Transport:   TransportTCP,
		Heartbeat:   -1, // only the socket drop signals death
		BackoffBase: 5 * time.Second,
		BackoffMax:  10 * time.Second,
		JitterSeed:  1,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	fake.mu.Lock()
	fake.conns[0].Close()
	fake.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for conn.State() != StateDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("session drop never degraded the connection: state %v", conn.State())
		}
		time.Sleep(5 * time.Millisecond)
	}

	done := make(chan struct{})
	start := time.Now()
	go func() { conn.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close blocked behind the reconnect backoff")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Close took %v inside a backoff of seconds, want prompt", elapsed)
	}
	if err := conn.Err(); !errors.Is(err, errConnClosed) {
		t.Errorf("Err after Close: %v, want conn-closed sentinel", err)
	}
	fake.Close()
	waitGoroutines(t, base)
}
