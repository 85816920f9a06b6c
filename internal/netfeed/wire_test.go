package netfeed

import (
	"net"
	"testing"
	"time"

	"tnnbcast/internal/broadcast"
)

// idleServer starts a loopback server whose pacer never fires (hour-long
// slots), so the caller drives transmitSlot itself and every negative
// slot counts as already aired. It dials one Conn per transport given and
// returns the server-side subscriber of each, in dial order.
func idleServer(tb testing.TB, transports ...Transport) (*Server, []*Conn, []*serverClient) {
	tb.Helper()
	srv, err := NewServer(ServerConfig{Spec: testSpec(20), SlotDur: time.Hour})
	if err != nil {
		tb.Fatalf("NewServer: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		tb.Fatalf("Start: %v", err)
	}
	tb.Cleanup(func() { srv.Close() })
	var conns []*Conn
	var subs []*serverClient
	for _, tr := range transports {
		srv.mu.Lock()
		before := make(map[*serverClient]bool, len(srv.clients))
		for cl := range srv.clients {
			before[cl] = true
		}
		srv.mu.Unlock()
		conn, err := Dial(srv.Addr().String(), DialConfig{Transport: tr})
		if err != nil {
			tb.Fatalf("Dial: %v", err)
		}
		tb.Cleanup(func() { conn.Close() })
		conns = append(conns, conn)
		// The server registers a client before it writes the preamble,
		// so the new subscriber is in place once Dial returns.
		srv.mu.Lock()
		for cl := range srv.clients {
			if !before[cl] {
				subs = append(subs, cl)
			}
		}
		srv.mu.Unlock()
	}
	if len(subs) != len(transports) {
		tb.Fatalf("server registered %d clients, want %d", len(subs), len(transports))
	}
	return srv, conns, subs
}

// fanOut registers every subscriber for slot t of channel 0 and
// transmits the slot: one slot's work on the server for those clients.
func fanOut(srv *Server, subs []*serverClient, t int64) {
	for _, cl := range subs {
		srv.handleWake(cl, 0, t)
	}
	srv.transmitSlot(t)
}

// warmUp runs receptions until keepTime has recycled at least n
// subscription states: from then on, receptions run on recycled states,
// waiters and buffers, the steady state of a long-lived Conn.
func warmUp(t *testing.T, conn *Conn, n int, receive func()) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		receive()
		conn.mu.Lock()
		free := len(conn.freeStates)
		conn.mu.Unlock()
		if free >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d states recycled after 10s of receptions, want %d", free, n)
		}
	}
}

// TestReceptionAllocs pins a steady-state reception at zero allocations,
// counted over the whole process: the client's WAKE, park and delivery,
// and the server's replay (an already-aired slot, over UDP and over the
// TCP stream) or paced transmission (a live slot).
func TestReceptionAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback broadcast")
	}
	for _, tr := range []Transport{TransportUDP, TransportTCP} {
		t.Run("replay-"+tr.String(), func(t *testing.T) {
			_, conns, _ := idleServer(t, tr)
			conn := conns[0]
			slot := int64(-1)
			receive := func() {
				if pf := conn.receive(0, slot); pf != nil {
					t.Fatalf("slot %d: %v", slot, pf.Kind)
				}
				slot--
			}
			warmUp(t, conn, 400, receive)
			if n := testing.AllocsPerRun(300, receive); n != 0 {
				t.Errorf("%v allocations per replayed reception, want 0", n)
			}
		})
	}
	t.Run("live-udp", func(t *testing.T) {
		srv := startTestServer(t, false)
		defer srv.Close()
		// A short grace lets keepTime recycle aired slots within a sweep.
		conn, err := Dial(srv.Addr().String(), DialConfig{Grace: 200 * time.Millisecond})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		var slot int64
		receive := func() {
			slot = max(slot+1, conn.NextIssueSlot())
			if pf := conn.receive(0, slot); pf != nil {
				t.Fatalf("slot %d: %v", slot, pf.Kind)
			}
		}
		warmUp(t, conn, 150, receive)
		if n := testing.AllocsPerRun(100, receive); n != 0 {
			t.Errorf("%v allocations per live reception, want 0", n)
		}
	})
}

// TestFanOutAllocs pins the server's steady-state cost per slot at zero
// allocations: registering the WAKEs of three UDP subscribers and one
// TCP subscriber, sealing the frame once, and sending it to all four.
func TestFanOutAllocs(t *testing.T) {
	srv, _, subs := idleServer(t, TransportUDP, TransportUDP, TransportUDP, TransportTCP)
	slot := int64(0)
	transmit := func() {
		fanOut(srv, subs, slot)
		slot++
		// Let the TCP writer drain, so the outbox never overflows.
		for len(subs[3].out) > 0 {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for range 200 {
		transmit()
	}
	if n := testing.AllocsPerRun(300, transmit); n != 0 {
		t.Errorf("%v allocations per slot to %d subscribers, want 0", n, len(subs))
	}
}

// TestOutboxDropsCounted fills a TCP client's outbox behind a writer
// blocked on the stream, pushes k more frames through sendTo, and
// requires every one of them to be counted as dropped.
func TestOutboxDropsCounted(t *testing.T) {
	srv, err := NewServer(ServerConfig{Spec: testSpec(20)})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	serverEnd, clientEnd := net.Pipe()
	cl := &serverClient{
		transport: TransportTCP, tcp: serverEnd,
		out:      make(chan *wireBuf, 256),
		closed:   make(chan struct{}),
		draining: make(chan struct{}),
	}
	frame := srv.frameFor(0, 0)
	for range cap(cl.out) {
		srv.sendTo(cl, frame)
	}
	srv.wg.Add(1)
	go srv.clientWriter(cl)
	// The writer takes one frame and blocks writing it to the unread
	// pipe; one more send refills the outbox behind it.
	for len(cl.out) == cap(cl.out) {
		time.Sleep(time.Millisecond)
	}
	srv.sendTo(cl, frame)
	if got := srv.OutboxDrops(); got != 0 {
		t.Fatalf("%d drops before the outbox was full", got)
	}
	const k = 5
	for range k {
		srv.sendTo(cl, frame)
	}
	if got := srv.OutboxDrops(); got != k {
		t.Errorf("OutboxDrops = %d after %d frames into a full outbox, want %d", got, k, k)
	}
	srv.release(frame)
	clientEnd.Close()
	srv.wg.Wait()
	srv.Close()
}

// BenchmarkTransmitSlot is the server's fan-out layer: one slot's WAKE
// registrations and transmission to eight loopback UDP subscribers, each
// a live Conn whose reader drains its socket.
func BenchmarkTransmitSlot(b *testing.B) {
	transports := make([]Transport, 8)
	srv, _, subs := idleServer(b, transports...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanOut(srv, subs, int64(i))
	}
}

// BenchmarkWakeReplay is a WAKE round trip: one Conn reception of an
// already-aired slot, from the WAKE through the server's replay to
// deliver, over loopback UDP. Receptions run for a little over a second
// first, so that the Conn's first sweep has recycled their states and
// the measured ones see a long-lived Conn's steady state.
func BenchmarkWakeReplay(b *testing.B) {
	_, conns, _ := idleServer(b, TransportUDP)
	conn := conns[0]
	slot := int64(-1)
	receive := func() {
		if pf := conn.receive(0, slot); pf != nil && pf.Kind == broadcast.FaultLost {
			b.Fatalf("slot %d lost", slot)
		}
		slot--
	}
	for start := time.Now(); time.Since(start) < 1200*time.Millisecond; {
		receive()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		receive()
	}
}
