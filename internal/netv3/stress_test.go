package netv3

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

// TestStressMixedIOWithReconnects hammers one client from 16 goroutines
// with mixed-size reads and writes while another goroutine repeatedly
// severs the TCP connection. Every I/O must eventually succeed (the
// reconnection layer replays unacknowledged requests) and every read
// must observe that worker's own writes. Run under -race this also
// checks the mu / frame-writer-queue split for data races.
func TestStressMixedIOWithReconnects(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 256
	_, addr := startServer(t, cfg, 32<<20)
	ccfg := DefaultClientConfig()
	ccfg.ReconnectBackoff = 5 * time.Millisecond
	ccfg.MaxReconnects = 1000
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 16
	const iters = 100
	sizes := []int{512, 4096, 8192, 65536}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	stopKill := make(chan struct{})
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		for i := 0; i < 8; i++ {
			select {
			case <-stopKill:
				return
			case <-time.After(5 * time.Millisecond):
				c.KillConnForTest()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * (1 << 20) // disjoint 1 MB region per worker
			for i := 0; i < iters; i++ {
				size := sizes[(w+i)%len(sizes)]
				off := base + int64(i%4)*int64(65536)
				data := bytes.Repeat([]byte{byte(w*31 + i + 1)}, size)
				if err := c.Write(1, off, data); err != nil {
					errs <- fmt.Errorf("worker %d iter %d write: %w", w, i, err)
					return
				}
				got := make([]byte, size)
				if err := c.Read(1, off, got); err != nil {
					errs <- fmt.Errorf("worker %d iter %d read: %w", w, i, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("worker %d iter %d corrupted", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopKill)
	killWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Reconnects() == 0 {
		t.Fatal("kill goroutine never forced a reconnection")
	}
}

// TestUnknownSeqPayloadDrained is the regression test for the stream
// desync bug: a ReadResp for an unknown/stale seq with StatusOK used to
// leave its payload bytes on the connection, corrupting every subsequent
// frame. The fake server answers each Read with a bogus unknown-seq
// response (plus payload) before the real one; the client must drain the
// junk and keep completing real requests.
func TestUnknownSeqPayloadDrained(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrom(conn); err != nil { // Connect
			return
		}
		_ = wire.WriteTo(conn, &wire.ConnectResp{
			Status: wire.StatusOK, Credits: 4, MaxXfer: 1 << 20, SessionID: 1,
		})
		for {
			msg, err := wire.ReadFrom(conn)
			if err != nil {
				return
			}
			m, ok := msg.(*wire.Read)
			if !ok {
				return // Disconnect or anything else ends the session
			}
			junk := bytes.Repeat([]byte{0xEE}, 768)
			bogus := &wire.ReadResp{
				ReqID: 9999, Status: wire.StatusOK, Credits: 1, Length: uint32(len(junk)),
			}
			bogus.Ack = 0xFFFFFF0 // never a live seq in this test
			if err := wire.WriteTo(conn, bogus); err != nil {
				return
			}
			if _, err := conn.Write(junk); err != nil {
				return
			}
			body := bytes.Repeat([]byte{byte(m.ReqID)}, int(m.Length))
			real := &wire.ReadResp{
				ReqID: m.ReqID, Status: wire.StatusOK, Credits: 1, Length: m.Length,
			}
			real.Ack = uint32(m.Seq)
			if err := wire.WriteTo(conn, real); err != nil {
				return
			}
			if _, err := conn.Write(body); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Several sequential reads: with the bug, the first junk payload
	// desyncs the stream and the second read never completes correctly.
	for i := 1; i <= 3; i++ {
		buf := make([]byte, 1024)
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := byte(i) // ReqID counts up from 1 on this fresh client
		for j, b := range buf {
			if b != want {
				t.Fatalf("read %d byte %d = %#x, want %#x (stream desynced)", i, j, b, want)
			}
		}
	}
}

// TestAsyncAPI exercises ReadAsync/WriteAsync handles: overlapped
// submission within the credit window, Done polling, and multi-Wait.
func TestAsyncAPI(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 8<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	writes := make([]*Pending, n)
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 8192)
		h, err := c.WriteAsync(1, int64(i)*8192, data)
		if err != nil {
			t.Fatal(err)
		}
		writes[i] = h
	}
	for i, h := range writes {
		if err := h.Wait(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if !h.Done() {
			t.Fatal("Done false after Wait")
		}
		if err := h.Wait(); err != nil { // Wait must be repeatable
			t.Fatalf("re-Wait write %d: %v", i, err)
		}
	}
	reads := make([]*Pending, n)
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 8192)
		h, err := c.ReadAsync(1, int64(i)*8192, bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = h
	}
	for i, h := range reads {
		if err := h.Wait(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if bufs[i][0] != byte(i+1) || bufs[i][8191] != byte(i+1) {
			t.Fatalf("read %d data wrong", i)
		}
	}
}
