package netv3

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

// startHungServer speaks just enough protocol to complete the handshake,
// then swallows every request without answering — the shape of a wedged
// (not dead) backend, which only bounded waits can detect.
func startHungServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func(conn net.Conn) {
				if _, err := wire.ReadFrom(conn); err != nil {
					return
				}
				wire.WriteTo(conn, &wire.ConnectResp{
					Status: wire.StatusOK, Credits: 8, MaxXfer: 1 << 20, SessionID: 1,
				})
				// Keep reading so the client's writes never block, but
				// never respond.
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestPendingWaitTimeout(t *testing.T) {
	addr := startHungServer(t)
	cfg := DefaultClientConfig()
	cfg.ReconnectBackoff = 10 * time.Millisecond
	cfg.MaxReconnects = 1
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := h.WaitTimeout(50 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("err=%v, want ErrWaitTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("WaitTimeout took %v", d)
	}
	// The expired wait canceled the request and published ErrWaitTimeout
	// as its completion status; a second wait observes the same status
	// immediately rather than panicking or blocking.
	if err := h.WaitTimeout(10 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("second wait: err=%v, want ErrWaitTimeout", err)
	}
	// And the credit slot came home with the cancel: nothing is in
	// flight pinning the window behind an abandoned handle.
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight after expired wait = %d, want 0", st.InFlight)
	}
}

func TestPendingWaitContext(t *testing.T) {
	addr := startHungServer(t)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := h.WaitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

// TestPendingWaitTimeoutCompleted pins that WaitTimeout on a finished
// request returns its result immediately, even with a zero bound.
func TestPendingWaitTimeoutCompleted(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitTimeout(0); err != nil {
		t.Fatalf("completed request reported %v through WaitTimeout", err)
	}
	if err := h.WaitContext(context.Background()); err != nil {
		t.Fatalf("completed request reported %v through WaitContext", err)
	}
}

// TestZeroLengthRead pins the health-probe op the cluster vault relies
// on: a zero-length read is a legal request that completes successfully
// end-to-end.
func TestZeroLengthRead(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Read(1, 0, nil); err != nil {
		t.Fatalf("zero-length read (nil buf): %v", err)
	}
	if err := c.Read(1, 0, []byte{}); err != nil {
		t.Fatalf("zero-length read (empty buf): %v", err)
	}
	h, err := c.ReadAsync(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("async zero-length read: %v", err)
	}
}

// TestReconnectsCounterConcurrent exercises the Reconnects read path
// while the connection is being torn down repeatedly; under -race this
// pins that the counter is accessed atomically.
func TestReconnectsCounterConcurrent(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	cfg := DefaultClientConfig()
	cfg.ReconnectBackoff = 5 * time.Millisecond
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			_ = c.Reconnects()
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 3; i++ {
		c.KillConnForTest()
		if err := c.Read(1, 0, make([]byte, 64)); err != nil {
			t.Fatalf("read after kill %d: %v", i, err)
		}
	}
	<-done
	if c.Reconnects() < 3 {
		t.Fatalf("reconnects=%d, want >=3", c.Reconnects())
	}
}

// TestUnclaimAfterRecoveryResends is the regression test for a lost
// request: the reader claims a read (removing it from the pending set)
// before draining its payload, and if the connection dies mid-payload it
// puts the request back for replay. But a submitter's failed write can
// drive recovery to completion first — its replay runs while the request
// is still claimed, so it is skipped — and the request the reader then
// put back was never sent again: its waiter hung forever. The test plays
// the reader's part by hand against a scripted server: claim, let the
// reconnection finish without the request, then unclaim, and the request
// must reach the new connection.
func TestUnclaimAfterRecoveryResends(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type arrival struct {
		conn int
		rd   *wire.Read
		nc   net.Conn
	}
	reads := make(chan arrival, 4) // one per connection at most, plus slack
	go func() {
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int, conn net.Conn) {
				defer conn.Close()
				if _, err := wire.ReadFrom(conn); err != nil {
					return
				}
				_ = wire.WriteTo(conn, &wire.ConnectResp{
					Status: wire.StatusOK, Credits: 8, MaxXfer: 1 << 20, SessionID: uint64(n),
				})
				for {
					m, err := wire.ReadFrom(conn)
					if err != nil {
						return
					}
					if rd, ok := m.(*wire.Read); ok {
						reads <- arrival{conn: n, rd: rd, nc: conn}
					}
				}
			}(n, conn)
		}
	}()
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0
	cfg.ReconnectBackoff = 5 * time.Millisecond
	c, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 512)
	h, err := c.ReadAsync(1, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if a := <-reads; a.conn != 1 {
		t.Fatalf("first read arrived on connection %d", a.conn)
	}
	// The reader's claim, as it happens on a ReadResp frame.
	c.mu.Lock()
	delete(c.pending, h.seq)
	c.mu.Unlock()
	// The connection dies and recovery completes; the claimed request is
	// not in the replay.
	c.KillConnForTest()
	deadline := time.Now().Add(5 * time.Second)
	for c.Reconnects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
	// The old generation's reader now gives the request back.
	c.unclaim(h, 1)
	select {
	case a := <-reads:
		if a.conn != 2 || a.rd.Seq != h.seq {
			t.Fatalf("resend: connection %d seq %d, want connection 2 seq %d", a.conn, a.rd.Seq, h.seq)
		}
		rr := &wire.ReadResp{ReqID: a.rd.ReqID, Status: wire.StatusOK, Credits: 1, Length: a.rd.Length}
		rr.Ack = uint32(a.rd.Seq)
		if err := wire.WriteTo(a.nc, rr); err != nil {
			t.Fatal(err)
		}
		if _, err := a.nc.Write(bytes.Repeat([]byte{0x5A}, int(a.rd.Length))); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unclaimed request was never resent on the new connection")
	}
	if err := h.WaitTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x5A || buf[511] != 0x5A {
		t.Fatal("resent read delivered wrong bytes")
	}
}
