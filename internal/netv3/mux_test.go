package netv3

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

// startSchedServer is startServer with a four-worker scheduler unless cfg
// sizes it: the mux tests want worker concurrency even on a one-CPU host,
// where the GOMAXPROCS default would give them a single worker.
func startSchedServer(t *testing.T, cfg ServerConfig, volSize int64) (*Server, string) {
	t.Helper()
	if cfg.SchedWorkers == 0 {
		cfg.SchedWorkers = 4
	}
	return startServer(t, cfg, volSize)
}

// TestStreamsBasicIO drives reads, writes, and flushes over a handful of
// logical streams multiplexed on one connection against a scheduler-mode
// server, checks data integrity end to end, and checks that the active
// session/stream gauges rise and fall with the population (satellite:
// active — not just cumulative — tracking).
func TestStreamsBasicIO(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 256
	srv, addr := startSchedServer(t, cfg, 8<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.StreamsSupported() {
		t.Fatal("server did not negotiate the stream feature")
	}
	if c.MaxStreams() == 0 {
		t.Fatal("negotiated MaxStreams is 0")
	}

	const nStreams = 8
	streams := make([]*Stream, nStreams)
	for i := range streams {
		cfg := StreamConfig{Credits: 4}
		if i%3 == 2 {
			cfg.Background = true
		}
		st, err := c.OpenStream(cfg)
		if err != nil {
			t.Fatalf("OpenStream %d: %v", i, err)
		}
		streams[i] = st
	}
	if got := srv.StreamsActive(); got != nStreams {
		t.Fatalf("server StreamsActive = %d, want %d", got, nStreams)
	}
	if got := c.Stats().StreamsOpen; got != nStreams {
		t.Fatalf("client StreamsOpen = %d, want %d", got, nStreams)
	}
	if got := srv.SessionsActive(); got != 1 {
		t.Fatalf("SessionsActive = %d, want 1", got)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nStreams)
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			base := int64(i) * 512 * 1024
			payload := bytes.Repeat([]byte{byte(i + 1)}, 16<<10)
			for k := 0; k < 8; k++ {
				off := base + int64(k)*int64(len(payload))
				if err := st.Write(1, off, payload); err != nil {
					errs <- fmt.Errorf("stream %d write: %w", i, err)
					return
				}
			}
			if err := st.Flush(1); err != nil {
				errs <- fmt.Errorf("stream %d flush: %w", i, err)
				return
			}
			got := make([]byte, len(payload))
			for k := 0; k < 8; k++ {
				off := base + int64(k)*int64(len(got))
				if err := st.Read(1, off, got); err != nil {
					errs <- fmt.Errorf("stream %d read: %w", i, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("stream %d: data mismatch at %d", i, off)
					return
				}
			}
		}(i, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for _, st := range streams {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// StreamClose frames race the gauge check; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for srv.StreamsActive() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.StreamsActive(); got != 0 {
		t.Fatalf("server StreamsActive after close = %d, want 0", got)
	}
	if got := c.Stats().StreamsOpen; got != 0 {
		t.Fatalf("client StreamsOpen after close = %d, want 0", got)
	}
	if got := srv.StreamsTotal(); got < nStreams {
		t.Fatalf("StreamsTotal = %d, want >= %d", got, nStreams)
	}
	if _, err := streams[0].ReadAsync(1, 0, make([]byte, 8)); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("submit on closed stream: got %v, want ErrStreamClosed", err)
	}
}

// TestImplicitStreamOpenHonorsMaxStreams is the regression test for the
// registry leak: a data frame on an unknown stream id opens that stream
// implicitly, and that path used to skip the MaxStreams cap StreamOpen
// enforces — a peer cycling the 32-bit stream id in Read frames grew the
// session's registry (and StreamsActive) without bound. Speaking the wire
// protocol directly, 70,000 reads each on its own stream id (past the
// field's 65,535 ceiling, so no configured cap could have hidden it) must
// all be answered while the server remembers at most MaxStreams of them.
func TestImplicitStreamOpenHonorsMaxStreams(t *testing.T) {
	const maxStreams, ids, readLen = 4, 70000, 512
	cfg := DefaultServerConfig()
	cfg.MaxStreams = maxStreams
	srv, addr := startSchedServer(t, cfg, 1<<20)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteTo(conn, &wire.Connect{Features: wire.FeatureStreams}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if m, err := wire.ReadFrom(br); err != nil {
		t.Fatal(err)
	} else if cr, ok := m.(*wire.ConnectResp); !ok || cr.Features&wire.FeatureStreams == 0 {
		t.Fatalf("handshake: got %+v, want a ConnectResp with streams negotiated", m)
	}
	// The volume is uncached, so every read is a scheduler task and meets
	// tenant(); a 32-deep window keeps the flood under admission control.
	window := make(chan struct{}, 32)
	sendErr := make(chan error, 1)
	go func() {
		for i := 1; i <= ids; i++ {
			window <- struct{}{}
			rd := &wire.Read{Header: wire.Header{Seq: uint64(i), Stream: uint32(i)},
				ReqID: uint64(i), Volume: 1, Length: readLen}
			if err := wire.WriteTo(conn, rd); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var rr wire.ReadResp
	var frame [wire.ControlSize]byte
	body := make([]byte, readLen)
	for i := 0; i < ids; i++ {
		if _, err := wire.ReadFrame(br, &frame); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if err := wire.UnmarshalInto(frame[:], &rr); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if rr.Status != wire.StatusOK || rr.Length != readLen {
			t.Fatalf("response %d on stream %d: status %v length %d", i, rr.Stream, rr.Status, rr.Length)
		}
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("response %d body: %v", i, err)
		}
		if got := srv.StreamsActive(); got > maxStreams {
			t.Fatalf("StreamsActive = %d after %d answered reads, want <= %d", got, i+1, maxStreams)
		}
		<-window
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("sending reads: %v", err)
	}
}

// TestStreamsUnsupportedPeer pins the fallback contract: against a server
// that negotiates no features (an old binary, simulated by a minimal
// handshake that echoes zero feature bits), the client connects and runs
// plain I/O fine, and OpenStream fails with ErrStreamsUnsupported.
func TestStreamsUnsupportedPeer(t *testing.T) {
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
		m, err := wire.ReadFrom(conn)
		if err != nil {
			return
		}
		if _, ok := m.(*wire.Connect); !ok {
			return
		}
		// A pre-feature server: zeros where Features/MaxStreams now live.
		resp := &wire.ConnectResp{Status: wire.StatusOK, Credits: 8, MaxXfer: 1 << 20, SessionID: 1}
		_, _ = conn.Write(wire.Marshal(resp))
		// Hold the connection open until the client is done.
		buf := make([]byte, 1)
		_, _ = conn.Read(buf)
	}()
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0
	c, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.StreamsSupported() {
		t.Fatal("StreamsSupported true against a zero-feature peer")
	}
	if _, err := c.OpenStream(StreamConfig{}); !errors.Is(err, ErrStreamsUnsupported) {
		t.Fatalf("OpenStream: got %v, want ErrStreamsUnsupported", err)
	}
}

// TestAdmissionControlSheds saturates a one-worker, tiny-admission-limit
// scheduler with a slow store and checks that overload is shed fast with
// ErrOverloaded plus a nonzero retry-after hint, that non-shed requests
// still complete correctly, and that the shed counter surfaces the event.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 1
	cfg.AdmitLimit = 1
	srv, addr := startTunedServer(t, cfg, tuning{}, &slowStore{BlockStore: NewMemStore(1 << 20), delay: 2 * time.Millisecond})

	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	pendings := make([]*Pending, 0, n)
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		bufs[i] = make([]byte, 4096)
		p, err := c.ReadAsync(1, 0, bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	var ok, shed int
	for _, p := range pendings {
		err := p.Wait()
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			shed++
			var oe *OverloadedError
			if !errors.As(err, &oe) {
				t.Fatalf("shed error is %T, want *OverloadedError", err)
			}
			if oe.RetryAfter <= 0 {
				t.Fatal("shed completion carries no retry-after hint")
			}
		default:
			t.Fatalf("unexpected completion: %v", err)
		}
	}
	if shed == 0 {
		t.Fatalf("no request was shed (ok=%d) — admission limit not enforced", ok)
	}
	if ok == 0 {
		t.Fatal("every request was shed — admission control admits nothing")
	}
	if got := srv.SchedStats().Shed; got < int64(shed) {
		t.Fatalf("SchedStats().Shed = %d, want >= %d", got, shed)
	}
	// The connection must still be usable after a shed storm.
	if err := c.Write(1, 0, []byte("still alive")); err != nil {
		t.Fatalf("post-shed write: %v", err)
	}
}

// TestClosedStreamResponseDrains is the demux regression test: a response
// arriving for a stream closed while the request was in flight must be
// drained off the wire without scribbling on the caller's buffer, and the
// connection must stay correctly framed for later traffic.
func TestClosedStreamResponseDrains(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 2
	_, addr := startTunedServer(t, cfg, tuning{}, &slowStore{BlockStore: NewMemStore(1 << 20), delay: 50 * time.Millisecond})

	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream(StreamConfig{Credits: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xAB}, 8192)
	p, err := st.ReadAsync(1, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("in-flight completion: got %v, want ErrStreamClosed", err)
	}
	// Let the server's (slow) response arrive and be drained.
	time.Sleep(150 * time.Millisecond)
	for _, b := range buf {
		if b != 0xAB {
			t.Fatal("late response for a closed stream scribbled on the detached buffer")
		}
	}
	// Framing intact: fresh traffic on the same connection round-trips.
	want := []byte("post-close traffic")
	if err := c.Write(1, 4096, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := c.Read(1, 4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-close read mismatch — stream desynced")
	}
}

// TestStreamCreditCarveOut checks that a stream's credit cap only bounds
// its own concurrency: a 1-credit stream still completes a pipelined
// burst, and a sibling stream makes progress beside it.
func TestStreamCreditCarveOut(t *testing.T) {
	cfg := DefaultServerConfig()
	srv, addr := startSchedServer(t, cfg, 1<<20)
	_ = srv
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	narrow, err := c.OpenStream(StreamConfig{Credits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Credits() != 1 {
		t.Fatalf("granted credits = %d, want 1", narrow.Credits())
	}
	wide, err := c.OpenStream(StreamConfig{Credits: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for _, st := range []*Stream{narrow, wide} {
		wg.Add(1)
		go func(st *Stream) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 32; i++ {
				if err := st.Read(1, int64(i)*512, buf); err != nil {
					errc <- err
					return
				}
			}
		}(st)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestStreamSurvivesReconnect checks that open streams are re-announced
// on the replacement session: after a killed connection, traffic on an
// already-open stream works again without reopening it.
func TestStreamSurvivesReconnect(t *testing.T) {
	cfg := DefaultServerConfig()
	_, addr := startSchedServer(t, cfg, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream(StreamConfig{Credits: 4})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("before the cut")
	if err := st.Write(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	c.KillConnForTest()
	// In-flight work fails with ErrConnLost; fresh submissions recover.
	got := make([]byte, len(payload))
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = st.Read(1, 0, got)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-reconnect read mismatch")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManyStreamsOneConnection opens a few thousand logical streams on a
// single wire connection — the headline scale claim, kept small enough
// for CI — and drives one read on each, checking the gauges at peak and
// after teardown.
func TestManyStreamsOneConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 256
	srv, addr := startSchedServer(t, cfg, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 2000
	streams := make([]*Stream, n)
	for i := range streams {
		st, err := c.OpenStream(StreamConfig{Credits: 1})
		if err != nil {
			t.Fatalf("OpenStream %d: %v", i, err)
		}
		streams[i] = st
	}
	if got := srv.StreamsActive(); got != n {
		t.Fatalf("StreamsActive = %d, want %d", got, n)
	}
	var wg sync.WaitGroup
	errc := make(chan error, n)
	sem := make(chan struct{}, 256) // bound test-side goroutine burst
	for i, st := range streams {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, st *Stream) {
			defer wg.Done()
			defer func() { <-sem }()
			buf := make([]byte, 1024)
			if err := st.Read(1, int64(i%1024)*1024, buf); err != nil {
				errc <- fmt.Errorf("stream %d: %w", i, err)
			}
		}(i, st)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, st := range streams {
		_ = st.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.StreamsActive() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.StreamsActive(); got != 0 {
		t.Fatalf("StreamsActive after teardown = %d, want 0", got)
	}
}
