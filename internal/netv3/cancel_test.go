package netv3

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
)

// startFaultServer runs a real server whose every session passes through
// a faultnet injector, so tests can blackhole, slow, or sever the link
// mid-protocol.
func startFaultServer(t *testing.T, cfg ServerConfig, volSize int64) (*Injected, string) {
	t.Helper()
	return startFaultServerStore(t, cfg, tuning{}, NewMemStore(volSize))
}

// Injected bundles a fault-wrapped server with its injector.
type Injected struct {
	Inj *faultnet.Injector
	Srv *Server
}

// TestCancelReleasesSlotsImmediately is the regression test for the
// credit leak: an expired WaitTimeout once left the request's credit
// pinned until the server answered, so a window's worth of timed-out
// requests against a hung server wedged the client permanently — every
// later submission blocked forever in the credit acquire. The expiry
// cancels the request and the token comes straight home.
func TestCancelReleasesSlotsImmediately(t *testing.T) {
	addr := startHungServer(t) // grants 8 credits, never answers
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0 // isolate the cancel path from hung detection
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Exhaust the whole window against the hung server and abandon every
	// handle through a bounded wait.
	for i := 0; i < c.Credits(); i++ {
		h, err := c.ReadAsync(1, 0, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitTimeout(5 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("req %d: err=%v, want ErrWaitTimeout", i, err)
		}
	}
	// The window must be fully reusable: a full window's worth of new
	// submissions acquires tokens without blocking. Pre-fix this deadlocked
	// on the first iteration.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < c.Credits(); i++ {
		h, err := c.ReadAsyncCtx(ctx, 1, 0, make([]byte, 64))
		if err != nil {
			t.Fatalf("post-cancel submission %d blocked: %v", i, err)
		}
		h.Cancel()
	}
	if st := c.Stats(); st.Cancels != int64(2*c.Credits()) {
		t.Fatalf("Cancels=%d, want %d", st.Cancels, 2*c.Credits())
	}
}

// TestCancelDetachesBuffer pins the ownership handoff: once Cancel
// returns true the caller owns the buffer again, and a late response for
// the canceled request is drained off the stream without ever touching
// that memory.
func TestCancelDetachesBuffer(t *testing.T) {
	f, addr := startFaultServer(t, DefaultServerConfig(), 1<<20)
	cfg := DefaultClientConfig()
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0xAB}, 4096)
	if err := c.Write(1, 0, data); err != nil {
		t.Fatal(err)
	}
	// Slow the link so the read response is still in flight when the
	// cancel lands.
	f.Inj.SetLatency(40*time.Millisecond, 0)
	buf := make([]byte, 4096)
	h, err := c.ReadAsync(1, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Fatal("Cancel returned false with the response still in flight")
	}
	if err := h.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait after Cancel = %v, want ErrCanceled", err)
	}
	// The buffer is ours: fill it with a sentinel and let the stale
	// response arrive. Its payload must be drained blind, not written here.
	for i := range buf {
		buf[i] = 0x5C
	}
	f.Inj.SetLatency(0, 0)
	// A follow-up read on the same connection proves the stream stayed
	// framed (the stale payload didn't shift frame boundaries) — and
	// reuses the reclaimed buffer, completing the ownership round trip.
	if err := c.Read(1, 0, buf); err != nil {
		t.Fatalf("read after canceled read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read-back after cancel mismatch")
	}
}

// TestCancelSentinelSurvivesLateResponse is the sharper half of the
// ownership test: after a cancel, the detached buffer's contents must
// still be exactly what the caller last wrote even AFTER the stale
// response has demonstrably arrived and been drained.
func TestCancelSentinelSurvivesLateResponse(t *testing.T) {
	f, addr := startFaultServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, bytes.Repeat([]byte{0xEE}, 1024)); err != nil {
		t.Fatal(err)
	}
	f.Inj.SetLatency(30*time.Millisecond, 0)
	buf := make([]byte, 1024)
	h, err := c.ReadAsync(1, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Skip("response won the race; nothing to verify")
	}
	sentinel := byte(0x42)
	for i := range buf {
		buf[i] = sentinel
	}
	f.Inj.SetLatency(0, 0)
	// Round-trip a fresh request into a DIFFERENT buffer: by frame
	// ordering, its completion proves the stale response was already
	// received and drained.
	other := make([]byte, 1024)
	if err := c.Read(1, 0, other); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != sentinel {
			t.Fatalf("buf[%d]=%#x: late response wrote into a canceled buffer", i, b)
		}
	}
}

// TestStatsResponsiveDuringReconnect is the regression test for the
// reconnect-under-mutex stall: recovery used to hold the client mutex
// across every dial attempt (up to DialTimeout each), so Stats, Close, and
// all submitter bookkeeping froze for seconds during a reconnect storm.
// The test parks the recovery inside its dial — the socket is connected,
// the handshake not yet sent — and Stats must answer meanwhile; released,
// the recovery completes and a read submitted during it succeeds.
func TestStatsResponsiveDuringReconnect(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	dialing, release := make(chan struct{}), make(chan struct{})
	var dials atomic.Int32
	c, err := dial(addr, quietClientConfig(), func(conn net.Conn) net.Conn {
		if dials.Add(1) == 2 {
			close(dialing)
			<-release
		}
		return conn
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	c.KillConnForTest()
	<-dialing
	stats := make(chan ClientStats)
	go func() { stats <- c.Stats() }()
	select {
	case <-stats:
	case <-time.After(5 * time.Second):
		t.Fatal("Stats blocked while recovery dialed (lock held across the dial)")
	}
	h, err := c.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := h.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("read submitted during the recovery: %v", err)
	}
	if c.Reconnects() != 1 {
		t.Fatalf("Reconnects=%d, want 1", c.Reconnects())
	}
}

// TestAcquireSlotHonorsContext pins the bounded submission primitive on
// its own: with the window exhausted, ReadAsyncCtx must return ctx.Err()
// within the context bound instead of joining the blocked acquirers.
func TestAcquireSlotHonorsContext(t *testing.T) {
	addr := startHungServer(t)
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	handles := make([]*Pending, 0, c.Credits())
	for i := 0; i < c.Credits(); i++ {
		h, err := c.ReadAsync(1, 0, make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.ReadAsyncCtx(ctx, 1, 0, make([]byte, 64))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("bounded acquire took %v", d)
	}
	for _, h := range handles {
		h.Cancel()
	}
}
