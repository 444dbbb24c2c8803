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
// server, checks data integrity end to end, and checks that the client's
// active stream count and the server's session gauge rise and fall with
// the population (active — not just cumulative — tracking).
func TestStreamsBasicIO(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 256
	srv, addr := startSchedServer(t, cfg, 8<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const nStreams = 8
	streams := make([]*Stream, nStreams)
	for i := range streams {
		streams[i] = c.OpenStream(StreamConfig{Credits: 4, Background: i%3 == 2})
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
	if cs := c.Stats(); cs.StreamsOpen != 0 || cs.StreamsOpened != nStreams {
		t.Fatalf("client streams after close: open %d opened %d, want 0 and %d", cs.StreamsOpen, cs.StreamsOpened, nStreams)
	}
	if _, err := streams[0].ReadAsync(1, 0, make([]byte, 8)); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("submit on closed stream: got %v, want ErrStreamClosed", err)
	}
}

// rawSession speaks the wire protocol directly: a Connect that offers no
// features, then nothing but data frames. It returns the connection and a
// reader positioned after the ConnectResp.
func rawSession(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteTo(conn, &wire.Connect{}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if m, err := wire.ReadFrom(br); err != nil {
		t.Fatal(err)
	} else if cr, ok := m.(*wire.ConnectResp); !ok || cr.Status != wire.StatusOK {
		t.Fatalf("handshake: got %+v, want a ConnectResp OK", m)
	}
	return conn, br
}

// readResp reads one Resp of readLen payload bytes off br.
func readResp(t *testing.T, br *bufio.Reader, readLen int) wire.Resp {
	t.Helper()
	var rr wire.Resp
	var frame [wire.ControlSize]byte
	if _, err := wire.ReadFrame(br, &frame); err != nil {
		t.Fatal(err)
	}
	if err := wire.UnmarshalInto(frame[:], &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != wire.StatusOK || int(rr.Length) != readLen {
		t.Fatalf("response %d on stream %#x: status %v length %d", rr.ReqID, rr.Stream, rr.Status, rr.Length)
	}
	if _, err := io.CopyN(io.Discard, br, int64(readLen)); err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestDistinctStreamIDsLeaveNoServerState pins that the server keeps no
// record of a stream: a peer cycling the 32-bit stream id in Flush frames
// — 70,000 ids, more than a 16-bit counter could name — has every flush
// answered, and once they are the scheduler holds no tenant for any of
// them (a tenant retires the moment its queue drains). There is no
// registry to grow and so no cap to enforce.
func TestDistinctStreamIDsLeaveNoServerState(t *testing.T) {
	const ids = 70000
	// A small cache: each Flush's destage pass scans every cache slot for
	// dirty blocks, and there are none to find.
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 64
	srv, addr := startSchedServer(t, cfg, 1<<20)
	conn, br := rawSession(t, addr)
	// Every Flush is a scheduler task under its stream's tenant; a 32-deep
	// window keeps the flood under admission control.
	window := make(chan struct{}, 32)
	sendErr := make(chan error, 1)
	go func() {
		for i := 1; i <= ids; i++ {
			window <- struct{}{}
			fl := &wire.Flush{Header: wire.Header{Stream: uint32(i)}, ReqID: uint64(i), Volume: 1}
			if err := wire.WriteTo(conn, fl); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < ids; i++ {
		readResp(t, br, 0)
		<-window
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("sending flushes: %v", err)
	}
	// Each response left after its task was popped, and the pop that
	// drains a tenant's queue retires it; a worker counts its task done
	// after the response is queued.
	waitFor(t, "every task to be counted", func() bool { return srv.SchedStats().FGDone == ids })
	if st := srv.SchedStats(); st.FGTenants != 0 || st.BGTenants != 0 {
		t.Fatalf("after %d answered flushes: %d fg and %d bg tenants, want none", ids, st.FGTenants, st.BGTenants)
	}
}

// TestStreamClassRidesEveryFrame pins where the server learns a stream's
// QoS class: from the top bit of the stream id on the request frame
// itself. A raw-protocol client that never sends anything but Connect and
// Read frames gets every read whose id carries wire.StreamBackground run
// on the background lane and every other read — the root's, a foreground
// stream's — on the foreground one. Each read is of a block of its own,
// at gaps that grow by a block each time (no stream the read-ahead
// detector would arm on), so each misses and runs as a scheduler task.
func TestStreamClassRidesEveryFrame(t *testing.T) {
	const readLen, perID = 512, 5
	srv, addr := startSchedServer(t, DefaultServerConfig(), 8<<20)
	conn, br := rawSession(t, addr)
	ids := []uint32{0, 1, 7, wire.StreamBackground, wire.StreamBackground | 1,
		wire.StreamBackground | 7, wire.StreamBackground | (wire.StreamBackground - 1)}
	var wantFG, wantBG int64
	seq := uint64(0)
	for _, id := range ids {
		for k := 0; k < perID; k++ {
			seq++
			blk := seq * (seq + 1) / 2
			rd := &wire.Read{Header: wire.Header{Stream: id}, ReqID: seq, Volume: 1, Offset: blk * cacheBlockSize, Length: readLen}
			if err := wire.WriteTo(conn, rd); err != nil {
				t.Fatal(err)
			}
			if rr := readResp(t, br, readLen); rr.ReqID != seq || rr.Stream != id {
				t.Fatalf("read %d on stream %#x answered as %d on %#x", seq, id, rr.ReqID, rr.Stream)
			}
			if id&wire.StreamBackground != 0 {
				wantBG++
			} else {
				wantFG++
			}
		}
	}
	// A worker counts its task done after the response is queued.
	waitFor(t, "every task to be counted", func() bool {
		st := srv.SchedStats()
		return st.FGDone+st.BGDone == wantFG+wantBG
	})
	if st := srv.SchedStats(); st.FGDone != wantFG || st.BGDone != wantBG {
		t.Fatalf("lanes: fg %d bg %d tasks done, want %d and %d", st.FGDone, st.BGDone, wantFG, wantBG)
	}
}

// TestOpenStreamIsLocal pins that a stream is the client's alone: on a
// connection blackholed in both directions OpenStream still returns at
// once, its credits the ask clamped to [1, the session window] and its
// class in the id every frame will carry.
func TestOpenStreamIsLocal(t *testing.T) {
	f, addr := startFaultServer(t, DefaultServerConfig(), 1<<20)
	ccfg := DefaultClientConfig()
	ccfg.KeepaliveInterval = 0
	ccfg.DialTimeout = 2 * time.Second
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	window := c.Credits()
	f.Inj.Blackhole(true)
	defer f.Inj.Blackhole(false)

	t0 := time.Now()
	for i, tc := range []struct {
		ask, want int
		bg        bool
	}{{0, 1, false}, {1, 1, true}, {16, 16, false}, {window + 1000, window, true}} {
		st := c.OpenStream(StreamConfig{Credits: tc.ask, Background: tc.bg})
		if st.Credits() != tc.want || st.Background() != tc.bg || st.ID() != uint32(i+1) {
			t.Fatalf("OpenStream(credits %d, background %v): id %d credits %d background %v; want id %d, %d credits",
				tc.ask, tc.bg, st.ID(), st.Credits(), st.Background(), i+1, tc.want)
		}
		wantWire := st.ID()
		if tc.bg {
			wantWire |= wire.StreamBackground
		}
		if st.id != wantWire {
			t.Fatalf("stream %d carries wire id %#x, want %#x", st.ID(), st.id, wantWire)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(t0); d >= ccfg.DialTimeout {
		t.Fatalf("opening and closing four streams over a blackholed link took %v", d)
	}
	if cs := c.Stats(); cs.StreamsOpen != 0 || cs.StreamsOpened != 4 {
		t.Fatalf("streams open %d opened %d, want 0 and 4", cs.StreamsOpen, cs.StreamsOpened)
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
// connection must stay correctly framed for later traffic. One scheduler
// worker serves the requests in arrival order, so once later traffic has
// round-tripped the late response has been received and drained.
func TestClosedStreamResponseDrains(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 1
	_, addr := startTunedServer(t, cfg, tuning{}, &slowStore{BlockStore: NewMemStore(1 << 20), delay: 50 * time.Millisecond})

	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.OpenStream(StreamConfig{Credits: 4})
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
	// Framing intact: fresh traffic on the same connection round-trips,
	// behind the server's slow response to the closed stream.
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
	for _, b := range buf {
		if b != 0xAB {
			t.Fatal("late response for a closed stream scribbled on the detached buffer")
		}
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
	narrow := c.OpenStream(StreamConfig{Credits: 1})
	if narrow.Credits() != 1 {
		t.Fatalf("granted credits = %d, want 1", narrow.Credits())
	}
	wide := c.OpenStream(StreamConfig{Credits: 16})
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

// TestStreamSurvivesReconnect checks that open streams outlive their
// connection: after a killed connection, traffic on an already-open stream
// works again without reopening it, and a background stream's request
// replayed onto the new session — the first frame that session sees from
// it — runs on the background lane, because the class rides the frame.
func TestStreamSurvivesReconnect(t *testing.T) {
	srv, addr := startSchedServer(t, DefaultServerConfig(), 1<<20)
	c := dialFaulted(t, addr, quietClientConfig())
	defer c.Close()
	st := c.OpenStream(StreamConfig{Credits: 4})
	bg := c.OpenStream(StreamConfig{Credits: 4, Background: true})
	// Each request below reaches a block nothing has touched yet — the
	// write fills block 0, each read ends one block further on — so each
	// misses and is a scheduler task whose lane the counters show.
	payload := []byte("before the cut")
	if err := st.Write(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the write's task to be counted", func() bool { return srv.SchedStats().FGDone == 1 })

	// A background read that never leaves the old connection: the frame
	// writer is stalled when it is submitted and the connection is killed
	// under it, so the replay is its first appearance on any session.
	c.inj.StallWrites(true)
	got := make([]byte, cacheBlockSize+len(payload))
	h, err := bg.ReadAsync(1, 0, got)
	if err != nil {
		t.Fatal(err)
	}
	c.KillConnForTest()
	c.inj.StallWrites(false)
	if err := h.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("replayed background read: %v", err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Fatal("replayed background read mismatch")
	}
	if cs := c.Stats(); cs.Reconnects != 1 || cs.Retries != 1 {
		t.Fatalf("Reconnects=%d Retries=%d, want 1 and 1", cs.Reconnects, cs.Retries)
	}
	waitFor(t, "the replayed read's task to be counted", func() bool { return srv.SchedStats().BGDone == 1 })
	if fg := srv.SchedStats().FGDone; fg != 1 {
		t.Fatalf("fg tasks done = %d after the replay, want 1: the replayed background read ran foreground", fg)
	}

	// And the foreground stream carries on, on the foreground lane.
	got = make([]byte, 2*cacheBlockSize+len(payload))
	if err := st.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(payload)], payload) {
		t.Fatal("post-reconnect read mismatch")
	}
	waitFor(t, "the foreground read's task to be counted", func() bool { return srv.SchedStats().FGDone == 2 })
	for _, s := range []*Stream{st, bg} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManyStreamsOneConnection opens a few thousand logical streams on a
// single wire connection — the headline scale claim, kept small enough
// for CI — and drives one read on each, checking the client's stream
// counts at peak and after teardown and that the server is left holding
// no tenant.
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
		streams[i] = c.OpenStream(StreamConfig{Credits: 1})
	}
	if got := c.Stats().StreamsOpen; got != n {
		t.Fatalf("StreamsOpen = %d, want %d", got, n)
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
	if got := c.Stats().StreamsOpen; got != 0 {
		t.Fatalf("StreamsOpen after teardown = %d, want 0", got)
	}
	if st := srv.SchedStats(); st.FGTenants != 0 || st.BGTenants != 0 {
		t.Fatalf("server holds %d fg and %d bg tenants after every read was answered", st.FGTenants, st.BGTenants)
	}
}
