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
	// The reader's claim, as it happens on a Resp frame.
	c.mu.Lock()
	delete(c.pending, h.id)
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
		if a.conn != 2 || a.rd.ReqID != h.id {
			t.Fatalf("resend: connection %d request %d, want connection 2 request %d", a.conn, a.rd.ReqID, h.id)
		}
		rr := &wire.Resp{ReqID: a.rd.ReqID, Status: wire.StatusOK, Length: a.rd.Length}
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

// TestRequestIDsSurvive32BitWrap: a response is matched to its request on
// the 64-bit ReqID it echoes. A client that matched on only the low 32 bits
// would drop the response to request 2³² as stale and never complete it —
// a wedge after ≈ 5 h of cached reads. The counter is preset just under the boundary; 64 mixed requests
// at window 16 cross it, the first sixteen by way of a reconnect replay.
// Every wait is bounded, so a lost response fails the test instead of
// hanging it.
func TestRequestIDsSurvive32BitWrap(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 64
	_, addr := startServer(t, cfg, 1<<20)
	c := dialFaulted(t, addr, quietClientConfig())
	defer c.Close()

	const (
		blk, window, ops = 8192, 16, 64
		bound            = 900 * time.Millisecond
	)
	// Reads check blocks 0..15 against this fill; writes go to 16..31.
	for b := 0; b < window; b++ {
		if err := c.Write(1, int64(b)*blk, bytes.Repeat([]byte{byte(b + 1)}, blk)); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	c.nextReq = 1<<32 - 8
	c.mu.Unlock()

	handles := make([]*Pending, window)
	bufs := make([][]byte, window)
	for s := range bufs {
		bufs[s] = make([]byte, blk)
	}
	wantRead := make([]byte, window) // the fill a slot's read must return; 0 = not a read
	reap := func(s int) {
		h := handles[s]
		if h == nil {
			return
		}
		handles[s] = nil
		if err := h.WaitTimeout(bound); err != nil {
			t.Fatalf("request id %d: %v", h.id, err)
		}
		if w := wantRead[s]; w != 0 && !bytes.Equal(bufs[s], bytes.Repeat([]byte{w}, blk)) {
			t.Fatalf("request id %d: read returned %#x..., want %#x", h.id, bufs[s][:4], w)
		}
	}
	// Nothing of the first window reaches the server: its sixteen frames —
	// ids 2³²−7 to 2³²+8 — sit behind generation 1's stalled socket until
	// the connection is killed, and reach it as one replay.
	c.inj.StallWrites(true)
	for i := 0; i < ops; i++ {
		s := i % window
		if i == window {
			c.KillConnForTest()
			c.inj.StallWrites(false)
		}
		reap(s)
		wantRead[s] = 0
		var err error
		switch {
		case i%8 == 7:
			handles[s], err = c.FlushAsync(1)
		case i%2 == 0:
			for j := range bufs[s] {
				bufs[s][j] = byte(i + 1)
			}
			handles[s], err = c.WriteAsync(1, int64(window+i/2%window)*blk, bufs[s])
		default:
			wantRead[s] = byte(i%window + 1)
			handles[s], err = c.ReadAsync(1, int64(i%window)*blk, bufs[s])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for s := range handles {
		reap(s)
	}
	if st := c.Stats(); st.Reconnects != 1 || st.Retries != window {
		t.Fatalf("Reconnects=%d Retries=%d, want 1 and %d: the replay did not carry the first window", st.Reconnects, st.Retries, window)
	}
	// Each written block holds its later write (op 32+2k landed on block 16+k after op 2k was reaped).
	got := make([]byte, blk)
	for k := 0; k < window; k++ {
		if err := c.Read(1, int64(window+k)*blk, got); err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat([]byte{byte(2*k + 33)}, blk); !bytes.Equal(got, want) {
			t.Fatalf("block %d holds %#x, want %#x", window+k, got[0], want[0])
		}
	}
}
