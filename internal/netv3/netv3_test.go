package netv3

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// serve starts srv on ln (nil: a fresh loopback port) and returns its
// address. Every test and benchmark server goes through here, so every
// teardown runs closeServer's pin-invariant check.
func serve(t testing.TB, srv *Server, ln net.Listener) string {
	t.Helper()
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	srv.ListenOn(ln)
	go srv.Serve()
	t.Cleanup(func() { closeServer(t, srv) })
	return ln.Addr().String()
}

// closeServer closes srv and asserts, on every cached volume, the
// invariant that encodes acked-but-not-durable: the pinned blocks are
// exactly the dirty and flushing ones. Safe to call again from the
// cleanup.
func closeServer(t testing.TB, srv *Server) {
	t.Helper()
	srv.Close()
	for _, v := range *srv.volumes.Load() {
		if v.cache != nil {
			checkPinInvariant(t, v.cache)
		}
	}
}

// startTunedServer serves store as volume 1 with the given pipeline
// tuning (zero fields keep the production defaults).
func startTunedServer(t testing.TB, cfg ServerConfig, tune tuning, store BlockStore) (*Server, string) {
	t.Helper()
	srv := newServer(cfg, tune)
	srv.AddVolume(1, store)
	return srv, serve(t, srv, nil)
}

func startServer(t testing.TB, cfg ServerConfig, volSize int64) (*Server, string) {
	t.Helper()
	return startTunedServer(t, cfg, tuning{}, NewMemStore(volSize))
}

// slowStore wraps a BlockStore with a fixed per-I/O latency, standing in
// for a disk where a test or benchmark needs store calls that take real
// wall time: queues that build, waits that overlap.
type slowStore struct {
	BlockStore
	delay time.Duration
}

func (s *slowStore) ReadAt(b []byte, off int64) error {
	time.Sleep(s.delay)
	return s.BlockStore.ReadAt(b, off)
}

func (s *slowStore) WriteAt(b []byte, off int64) error {
	time.Sleep(s.delay)
	return s.BlockStore.WriteAt(b, off)
}

func TestReadWriteRoundtrip(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []byte("hello, VI-attached volume vault")
	if err := c.Write(1, 8192, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(1, 8192, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make([]byte, 4096)
	if err := c.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten region not zero")
		}
	}
}

func TestLargeTransfer(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 8<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 1<<20) // MaxXfer default
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Write(1, 1<<20, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(1, 1<<20, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("1MB roundtrip corrupted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, addr := startServer(t, DefaultServerConfig(), 16<<20)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, DefaultClientConfig())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 16; i++ {
				off := int64(w*16+i) * 8192
				data := bytes.Repeat([]byte{byte(w*16 + i)}, 8192)
				if err := c.Write(1, off, data); err != nil {
					errs <- err
					return
				}
				got := make([]byte, 8192)
				if err := c.Read(1, off, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("worker %d block %d corrupted", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Served() < 128 {
		t.Fatalf("served=%d", srv.Served())
	}
	if srv.Sessions() != 4 {
		t.Fatalf("sessions=%d", srv.Sessions())
	}
}

func TestOverlappedIOWithinOneClient(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 16<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off := int64(i) * 65536
			data := bytes.Repeat([]byte{byte(i + 1)}, 32768)
			if err := c.Write(1, off, data); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(data))
			if err := c.Read(1, off, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("stream %d corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUnknownVolume(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(99, 0, []byte("x")); err == nil {
		t.Fatal("write to unknown volume should fail")
	}
	// Session must remain usable.
	if err := c.Write(1, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeIO(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 65536)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 65536-10, make([]byte, 100)); err == nil {
		t.Fatal("out-of-range write should fail")
	}
	if err := c.Read(1, 0, make([]byte, 512)); err != nil {
		t.Fatalf("session unusable after EIO: %v", err)
	}
}

func TestServerCacheHits(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 128
	srv, addr := startServer(t, cfg, 4<<20)
	// A cached volume owns exactly two long-lived goroutines: destager and
	// prefetch worker. Goroutines of earlier tests may still be exiting,
	// which can only shrink the delta, so a short count retries on a
	// fresh volume; a larger one is the regression and fails at once.
	for id := uint32(2); ; id++ {
		before := runtime.NumGoroutine()
		srv.AddVolume(id, NewMemStore(1<<20))
		grew := runtime.NumGoroutine() - before
		if grew == 2 {
			break
		}
		if grew > 2 || id == 10 {
			t.Fatalf("AddVolume on a cached server grew the goroutine count by %d, want 2", grew)
		}
	}
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	if err := c.Write(1, 0, bytes.Repeat([]byte{7}, 8192)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	hits, _ := srv.CacheStats()
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
	if buf[0] != 7 {
		t.Fatal("cached data wrong")
	}
}

// TestPartialHitCountsOnce: a read over one resident and one absent block
// is probed inline, falls back and is served whole by a task. Each block
// is one access — a hit and a miss — however many times the server looked
// at the resident one on the way.
func TestPartialHitCountsOnce(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{CacheBlocks: 64}, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, bytes.Repeat([]byte{7}, cacheBlockSize)); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := srv.CacheStats()
	buf := make([]byte, 2*cacheBlockSize)
	if err := c.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 || buf[cacheBlockSize] != 0 {
		t.Fatal("partly resident read returned wrong bytes")
	}
	hits, misses := srv.CacheStats()
	if hits-hits0 != 1 || misses-misses0 != 1 {
		t.Fatalf("16 KB read over one resident and one absent block moved hits by %d and misses by %d, want 1 and 1",
			hits-hits0, misses-misses0)
	}
}

// TestHitReadAllocs pins what a cached read costs in allocations, counted
// over the whole process: the client's handle — completion is a word and a
// parking place inside it, not a channel — and nothing on the server: not
// the pooled body, not the MQ reference.
func TestHitReadAllocs(t *testing.T) {
	_, addr := startServer(t, ServerConfig{CacheBlocks: 64}, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, cacheBlockSize)
	if err := c.Write(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm: pools and queues grown
		read()
	}
	if n := testing.AllocsPerRun(500, read); n > 1 {
		t.Fatalf("cached 8 KB read: %.0f allocations, want at most 1", n)
	}
}

// TestBackoffDelay pins the reconnect schedule and its defaults: the wait
// doubles with every consecutive failed attempt, and a config that names
// neither knob redials on 100 ms, eight times.
func TestBackoffDelay(t *testing.T) {
	for _, tc := range []struct {
		base   time.Duration
		failed int
		want   time.Duration
	}{
		{100 * time.Millisecond, 1, 100 * time.Millisecond},
		{100 * time.Millisecond, 2, 200 * time.Millisecond},
		{100 * time.Millisecond, 3, 400 * time.Millisecond},
		{100 * time.Millisecond, 7, 6400 * time.Millisecond}, // the default budget's last wait
		{10 * time.Millisecond, 4, 80 * time.Millisecond},
	} {
		if got := backoffDelay(tc.base, tc.failed); got != tc.want {
			t.Errorf("backoffDelay(%v, %d) = %v, want %v", tc.base, tc.failed, got, tc.want)
		}
	}
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	for name, cfg := range map[string]ClientConfig{"zero": {}, "default": DefaultClientConfig()} {
		c, err := Dial(addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.cfg.ReconnectBackoff != 100*time.Millisecond || c.cfg.MaxReconnects != 8 {
			t.Errorf("%s config redials on %v, %d times; want 100ms, 8", name, c.cfg.ReconnectBackoff, c.cfg.MaxReconnects)
		}
		c.Close()
	}
}

func TestCachedReadConsistentAfterWrite(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 128
	_, addr := startServer(t, cfg, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	if err := c.Write(1, 0, bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(1, 0, buf); err != nil { // populates the cache
		t.Fatal(err)
	}
	if err := c.Write(1, 0, bytes.Repeat([]byte{2}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 || buf[8191] != 2 {
		t.Fatal("stale cache after write")
	}
}

func TestFileStoreBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	fs, err := NewFileStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(DefaultServerConfig())
	srv.AddVolume(7, fs)
	c, err := Dial(serve(t, srv, nil), DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := []byte("persistent bytes")
	if err := c.Write(7, 512, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.Read(7, 512, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file store roundtrip corrupted")
	}
	if srv.VolumeSize(7) != 1<<20 {
		t.Fatal("volume size wrong")
	}
}

func TestCreditWindowRespected(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Credits = 2
	_, addr := startServer(t, cfg, 8<<20)
	ccfg := DefaultClientConfig()
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 16 concurrent writes through a 2-credit window must all complete.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{byte(i)}, 8192)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReconnectReplaysOutstanding(t *testing.T) {
	srv, addr := startServer(t, DefaultServerConfig(), 1<<20)
	ccfg := DefaultClientConfig()
	ccfg.ReconnectBackoff = 20 * time.Millisecond
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}
	_ = srv // the same listener keeps accepting
	c.KillConnForTest()
	// Next I/O hits the dead socket, triggers reconnection, and succeeds.
	deadline := time.Now().Add(5 * time.Second)
	var got []byte
	for time.Now().Before(deadline) {
		got = make([]byte, 6)
		if err := c.Read(1, 0, got); err == nil {
			break
		}
	}
	if string(got) != "before" {
		t.Fatalf("after reconnect got %q", got)
	}
	if c.Reconnects() == 0 {
		t.Fatal("no reconnection recorded")
	}
	if srv.Sessions() < 2 {
		t.Fatalf("server sessions=%d, want >= 2", srv.Sessions())
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	_, addr := startServer(t, DefaultServerConfig(), 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Read(1, 0, make([]byte, 16)); err == nil {
		t.Fatal("read after close should fail")
	}
}

func TestMemStoreBounds(t *testing.T) {
	m := NewMemStore(100)
	if err := m.ReadAt(make([]byte, 10), 95); err == nil {
		t.Fatal("overflow read accepted")
	}
	if err := m.WriteAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if m.Size() != 100 {
		t.Fatal("size wrong")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
