package netfeed

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// TestLongCycleSpecRefused: a spec whose objects each fill 2²⁵ pages puts
// about 3.4·10⁹ slots in a cycle. Every field is in its domain, so the
// decoder accepts it; the server must refuse it with an error, and a
// client handed it by a hostile server must fail the handshake with a
// FrameBadField, not panic in the build.
func TestLongCycleSpecRefused(t *testing.T) {
	sp := testSpec(100)
	sp.Params.DataSize = math.MaxInt32
	blob := appendPreamble(make([]byte, 4), sp, time.Millisecond, 0)
	binary.BigEndian.PutUint32(blob[:4], uint32(len(blob)-4))
	if _, _, _, _, _, err := decodePreamble(blob[4:]); err != nil {
		t.Fatalf("decodePreamble: %v", err)
	}

	if srv, err := NewServer(ServerConfig{Spec: sp}); err == nil {
		srv.Close()
		t.Fatal("NewServer accepted a cycle over 2³¹-1 slots")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, make([]byte, HelloSize)); err == nil {
			conn.Write(blob)
			io.Copy(io.Discard, conn)
		}
	}()
	conn, err := Dial(ln.Addr().String(), DialConfig{Transport: TransportTCP, ConnectTimeout: 5 * time.Second})
	if err == nil {
		conn.Close()
		t.Fatal("Dial accepted a cycle over 2³¹-1 slots")
	}
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Reason != FrameBadField {
		t.Fatalf("Dial: error %T %v, want a FrameBadField *FrameError", err, err)
	}
}
