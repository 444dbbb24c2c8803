package netv3

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
	"github.com/v3storage/v3/internal/obs"
)

// faultedClient is a client whose every dialed socket sits inside a
// client-side faultnet domain: the injector can stall the sockets' writes
// and each socket counts the writes that reach it.
type faultedClient struct {
	*Client
	inj *faultnet.Injector

	mu    sync.Mutex
	conns []*faultnet.Conn // one per connection generation
}

func dialFaulted(t *testing.T, addr string, cfg ClientConfig) *faultedClient {
	t.Helper()
	fc := &faultedClient{inj: faultnet.New(1)}
	c, err := dial(addr, cfg, func(conn net.Conn) net.Conn {
		w := fc.inj.WrapConn(conn)
		fc.mu.Lock()
		fc.conns = append(fc.conns, w)
		fc.mu.Unlock()
		return w
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.Client = c
	return fc
}

// socketWrites is how many writes reached the client's sockets, all
// generations; one of them per generation is the handshake's Connect.
func (fc *faultedClient) socketWrites() int64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var n int64
	for _, c := range fc.conns {
		n += c.Writes()
	}
	return n
}

// quietClientConfig is the default client without the keepalive, whose
// pings would show up as frames and writes of their own.
func quietClientConfig() ClientConfig {
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0
	cfg.ReconnectBackoff = time.Millisecond
	return cfg
}

// writeLogStore records every WriteAt's offset in arrival order.
type writeLogStore struct {
	BlockStore
	mu   sync.Mutex
	offs []int64
}

func (s *writeLogStore) WriteAt(b []byte, off int64) error {
	s.mu.Lock()
	s.offs = append(s.offs, off)
	s.mu.Unlock()
	return s.BlockStore.WriteAt(b, off)
}

func (s *writeLogStore) writes() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.offs...)
}

// startWriteLogServer serves an uncached volume with one scheduler worker,
// so every client write is exactly one store write and they are applied in
// the order their frames arrived.
func startWriteLogServer(t *testing.T) (*Server, *writeLogStore, string) {
	t.Helper()
	store := &writeLogStore{BlockStore: NewMemStore(1 << 20)}
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 1
	srv, addr := startTunedServer(t, cfg, tuning{}, store)
	return srv, store, addr
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// frameWriterGoroutines counts goroutines inside a frame writer's loop,
// client and server side alike.
func frameWriterGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "(*frameWriter).writeLoop")
}

// TestAsyncWindowLeavesInOneWrite: sixteen ReadAsync from one goroutine
// cost at most two socket writes, because the writer cannot get to the
// queue before the submitter blocks. On one P that is a scheduling fact,
// not a likelihood (on several, the writer wakes on another P and how much
// of the window it finds queued is a race), so the test pins one. The
// registry pair and the Stats pair must tell the same story as the socket.
func TestAsyncWindowLeavesInOneWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	cfg := quietClientConfig()
	reg := obs.New()
	cfg.Metrics = reg
	c := dialFaulted(t, addr, cfg)
	defer c.Close()

	const window = 16
	before := c.socketWrites()
	handles := make([]*Pending, window)
	for i := range handles {
		h, err := c.ReadAsync(1, int64(i)*8192, make([]byte, 8192))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	writes := c.socketWrites() - before
	if writes < 1 || writes > 2 {
		t.Fatalf("%d requests from one goroutine took %d socket writes, want 1 or 2", window, writes)
	}
	st := c.Stats()
	if st.FramesSent != window || st.WireWrites != writes {
		t.Fatalf("Stats: FramesSent=%d WireWrites=%d, socket saw %d frames in %d writes",
			st.FramesSent, st.WireWrites, window, writes)
	}
	batch := reg.Hist("netv3_client_frames_per_write").Snapshot()
	if batch.Count() != writes || batch.Sum != window {
		t.Fatalf("netv3_client_frames_per_write: %d batches totalling %d frames, want %d and %d",
			batch.Count(), batch.Sum, writes, window)
	}
	if n := reg.Hist("netv3_client_wire_write_ns").Snapshot().Count(); n != writes {
		t.Fatalf("netv3_client_wire_write_ns timed %d writes, want %d", n, writes)
	}
}

// TestBlockingCallersShareWrites: eight goroutines in blocking Write on
// one P. Each caller's signal makes the writer the next goroutine to run;
// it is the writer's yield that lets the other runnable callers post
// first, so their frames share a write. Without it this reads 1.0.
func TestBlockingCallersShareWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c := dialFaulted(t, addr, quietClientConfig())
	defer c.Close()

	const callers, ops = 8, 2000
	before := c.socketWrites()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(g)}, 8192)
			for i := 0; i < ops/callers; i++ {
				if err := c.Write(1, int64(g)*8192, data); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	writes := c.socketWrites() - before
	st := c.Stats()
	if st.FramesSent != ops || st.WireWrites != writes {
		t.Fatalf("Stats: FramesSent=%d WireWrites=%d, socket saw %d frames in %d writes",
			st.FramesSent, st.WireWrites, ops, writes)
	}
	if mean := float64(ops) / float64(writes); mean < 3 {
		t.Fatalf("%d blocking callers: %.2f frames per write (%d writes for %d ops), want >= 3",
			callers, mean, writes, ops)
	}
}

// TestLoneCallerIsNeverHeldBack: with one blocking caller every request
// is its own socket write. Nothing ever waits for a second frame or a
// timer — there is no timer.
func TestLoneCallerIsNeverHeldBack(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c := dialFaulted(t, addr, quietClientConfig())
	defer c.Close()

	const ops = 200
	before := c.socketWrites()
	buf := make([]byte, 512)
	for i := 0; i < ops; i++ {
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if writes := c.socketWrites() - before; writes != ops {
		t.Fatalf("%d sequential requests took %d socket writes, want exactly %d", ops, writes, ops)
	}
	if st := c.Stats(); st.FramesSent != ops || st.WireWrites != ops {
		t.Fatalf("Stats: FramesSent=%d WireWrites=%d, want %d each", st.FramesSent, st.WireWrites, ops)
	}
}

// TestChaosKillWithQueuedFrames severs the connection while a window of
// writes sits in the frame writer's queue, unwritten. The queue is dropped
// with its generation and replay re-sends the window: every handle
// completes once, the server applies each write once and in submission
// order, and no writer goroutine outlives its connection — not after this,
// and not after fifty more forced reconnects.
func TestChaosKillWithQueuedFrames(t *testing.T) {
	srv, store, addr := startWriteLogServer(t)
	goroutines := runtime.NumGoroutine()
	c := dialFaulted(t, addr, quietClientConfig())

	const window = 16
	c.inj.StallWrites(true)
	handles := make([]*Pending, window)
	for i := range handles {
		h, err := c.WriteAsync(1, int64(i)*8192, bytes.Repeat([]byte{byte(i + 1)}, 8192))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	if n := c.socketWrites(); n != 1 { // the handshake
		t.Fatalf("%d writes reached the socket through the stall", n)
	}
	c.KillConnForTest()
	c.inj.StallWrites(false)
	for i, h := range handles {
		if err := h.WaitTimeout(5 * time.Second); err != nil {
			t.Fatalf("write %d after replay: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Reconnects != 1 || st.Retries != window {
		t.Fatalf("Reconnects=%d Retries=%d, want 1 and %d", st.Reconnects, st.Retries, window)
	}
	offs := store.writes()
	if len(offs) != window {
		t.Fatalf("server applied %d writes, want %d: %v", len(offs), window, offs)
	}
	for i, off := range offs {
		if off != int64(i)*8192 {
			t.Fatalf("server applied writes out of order: %v", offs)
		}
	}

	buf := make([]byte, 512)
	for i := 0; i < 50; i++ {
		c.KillConnForTest()
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatalf("read across forced reconnect %d: %v", i, err)
		}
	}
	if n := c.Reconnects(); n != 51 {
		t.Fatalf("Reconnects=%d after 50 more kills, want 51", n)
	}
	waitFor(t, "retired generations' writers to exit", func() bool {
		return frameWriterGoroutines() == 2 // the live connection's two ends
	})
	c.Close()
	waitFor(t, "sessions to end", func() bool { return srv.SessionsActive() == 0 })
	waitFor(t, "every frame writer to exit", func() bool { return frameWriterGoroutines() == 0 })
	waitFor(t, "goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
}

// TestCloseDrainsQueueThenDisconnects: Close with frames still queued puts
// them, then Disconnect, on the wire before the socket closes.
func TestCloseDrainsQueueThenDisconnects(t *testing.T) {
	srv, store, addr := startWriteLogServer(t)
	c := dialFaulted(t, addr, quietClientConfig())

	const queued = 8
	c.inj.StallWrites(true)
	handles := make([]*Pending, queued)
	for i := range handles {
		h, err := c.WriteAsync(1, int64(i)*8192, bytes.Repeat([]byte{byte(i + 1)}, 8192))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with the queue still stalled")
	case <-time.After(20 * time.Millisecond):
	}
	c.inj.StallWrites(false)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after the stall was released")
	}
	for i, h := range handles {
		if err := h.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("handle %d: %v, want ErrClosed", i, err)
		}
	}
	waitFor(t, "the queued writes to reach the store", func() bool { return len(store.writes()) == queued })
	// The session ends on the Disconnect frame that followed them.
	waitFor(t, "the session to end", func() bool { return srv.SessionsActive() == 0 })
	if st := c.Stats(); st.FramesSent != queued+1 {
		t.Fatalf("FramesSent=%d, want %d writes and the Disconnect", st.FramesSent, queued)
	}
}

// TestCloseIsBoundedAgainstStalledPeer: a peer that has stopped reading
// cannot hang Close — the write deadline fails the blocked writer.
func TestCloseIsBoundedAgainstStalledPeer(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	cfg := quietClientConfig()
	cfg.DialTimeout = 100 * time.Millisecond
	c := dialFaulted(t, addr, cfg)

	c.inj.StallWrites(true)
	for i := 0; i < 8; i++ {
		if _, err := c.WriteAsync(1, int64(i)*8192, make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung against a peer that stopped reading")
	}
	if d := time.Since(start); d < cfg.DialTimeout/2 {
		t.Fatalf("Close returned after %v: it did not wait for the writer at all", d)
	}
	waitFor(t, "the client's writer to exit", func() bool { return frameWriterGoroutines() <= 1 })
}

// TestCancelThenScribble: the payload is copied when the frame is queued,
// so a caller that cancels a write still sitting in the queue and reuses
// its buffer cannot corrupt what the server later receives. The block ends
// up as its old content or the original payload, never the scribble.
func TestCancelThenScribble(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c := dialFaulted(t, addr, quietClientConfig())
	defer c.Close()

	old := bytes.Repeat([]byte{0x11}, 8192)
	payload := bytes.Repeat([]byte{0x22}, 8192)
	for round := 0; round < 4; round++ {
		off := int64(round) * 8192
		if err := c.Write(1, off, old); err != nil {
			t.Fatal(err)
		}
		c.inj.StallWrites(true)
		data := append([]byte(nil), payload...)
		h, err := c.WriteAsync(1, off, data)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Cancel() {
			t.Fatal("Cancel of a queued write returned false")
		}
		for i := range data {
			data[i] = 0xEE
		}
		c.inj.StallWrites(false)
		// The read queues behind the canceled write on the same connection,
		// so by the time it completes the server has dealt with both.
		got := make([]byte, 8192)
		if err := c.Read(1, off, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, old) && !bytes.Equal(got, payload) {
			t.Fatalf("round %d: block holds %#x..., neither its old content nor the canceled payload", round, got[:4])
		}
	}
}

// lateFailConn is a socket that lets the handshake's one direct write
// through and then blocks every write until the test releases it, failing
// it then — whatever has happened to the connection meanwhile. It stands in
// for a writer stuck in the kernel that reports its error long after the
// client has moved on.
type lateFailConn struct {
	net.Conn
	handshaken bool
	entered    chan struct{} // closed when the writer's first write begins
	release    chan struct{}
}

func (c *lateFailConn) Write(b []byte) (int, error) {
	if !c.handshaken {
		c.handshaken = true
		return c.Conn.Write(b)
	}
	select {
	case <-c.entered:
	default:
		close(c.entered)
	}
	<-c.release
	return 0, errors.New("late write failure")
}

// TestStaleWriterErrorIsIgnored: the writer of a dead generation failing
// after the new connection is installed must not tear that connection
// down — the same guard the reader has.
func TestStaleWriterErrorIsIgnored(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	var stuck *lateFailConn
	c, err := dial(addr, quietClientConfig(), func(conn net.Conn) net.Conn {
		if stuck != nil {
			return conn // generation 2 and later: the plain socket
		}
		stuck = &lateFailConn{Conn: conn, entered: make(chan struct{}), release: make(chan struct{})}
		return stuck
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Generation 1's writer takes this frame and sticks in Write.
	h, err := c.WriteAsync(1, 0, bytes.Repeat([]byte{7}, 8192))
	if err != nil {
		t.Fatal(err)
	}
	<-stuck.entered
	c.KillConnForTest() // its reader notices; recovery installs generation 2
	if err := h.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("replayed write: %v", err)
	}
	if n := c.Reconnects(); n != 1 {
		t.Fatalf("Reconnects=%d, want 1", n)
	}
	writers := frameWriterGoroutines()
	close(stuck.release) // now generation 1's writer fails
	waitFor(t, "the stale writer to exit", func() bool { return frameWriterGoroutines() < writers })
	buf := make([]byte, 8192)
	for i := 0; i < 20; i++ {
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Reconnects != 1 || st.Retries != 1 {
		t.Fatalf("Reconnects=%d Retries=%d after the stale writer failed, want 1 and 1", st.Reconnects, st.Retries)
	}
}
