package netv3

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
)

// shallowQ is parked with half the default disk-queue depth.
var shallowQ = tuning{destageInterval: time.Hour, sqDepth: 32}

// TestCheckStoreRangeOverflow is the regression test for the wire-offset
// integer overflow: off+int64(n) wraps negative for offsets near
// MaxInt64, so the old comparison let a hostile extent through and the
// panic surfaced deep inside buffer slicing. Every near-wrap shape must
// now be rejected.
func TestCheckStoreRangeOverflow(t *testing.T) {
	const size = 1 << 20
	bad := []struct {
		off int64
		n   int
	}{
		{math.MaxInt64, 1},
		{math.MaxInt64 - 4095, 8192}, // the wrapping shape
		{math.MaxInt64 - 8191, 8192}, // off+n == exactly MinInt64
		{size - 1, 2},
		{-1, 0},
		{0, size + 1},
		{4096, -1}, // negative length must not pass as "small"
	}
	for _, c := range bad {
		if err := checkStoreRange(size, c.off, c.n); err == nil {
			t.Errorf("checkStoreRange(%d, %d, %d) accepted an out-of-range extent", size, c.off, c.n)
		}
	}
	good := []struct {
		off int64
		n   int
	}{{0, 0}, {0, size}, {size, 0}, {size - 1, 1}, {8192, 4096}}
	for _, c := range good {
		if err := checkStoreRange(size, c.off, c.n); err != nil {
			t.Errorf("checkStoreRange(%d, %d, %d) rejected a valid extent: %v", size, c.off, c.n, err)
		}
	}
}

// TestDiskQMaliciousOffset drives hostile extents through the wire
// protocol, against a cached and an uncached volume (the inline paths and
// the scheduler tasks each validate the range): a read or write at an
// offset chosen to wrap the range check must come back as a clean error —
// not a server panic — and the session must remain fully usable
// afterwards.
func TestDiskQMaliciousOffset(t *testing.T) {
	for _, cacheBlocks := range []int{256, 0} {
		hostileOffsets(t, ServerConfig{CacheBlocks: cacheBlocks})
	}
}

func hostileOffsets(t *testing.T, cfg ServerConfig) {
	t.Helper()
	_, addr := startTunedServer(t, cfg, shallowQ, NewMemStore(1<<20))
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	for _, off := range []int64{math.MaxInt64 - 4095, math.MaxInt64 - 8191, 1 << 40} {
		if err := c.Read(1, off, buf); err == nil {
			t.Fatalf("read at hostile offset %d succeeded", off)
		}
		if err := c.Write(1, off, buf); err == nil {
			t.Fatalf("write at hostile offset %d succeeded", off)
		}
	}
	// The session survived: a normal round trip still works.
	data := bytes.Repeat([]byte{0x5A}, 8192)
	if err := c.Write(1, 16384, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(1, 16384, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read back wrong bytes after hostile offsets")
	}
}

// TestDiskQDestageBatches proves the destager drives the queue with
// vectored batches: with background destaging parked, acked writes stay
// out of the file until Flush, whose batched pass then commits runs via
// multi-op submissions and leaves the bytes on disk.
func TestDiskQDestageBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	srv, addr := startFileServer(t, diskCfg(), shallowQ, path, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two separated dirty extents → the batched pass has ≥ 2 runs to
	// submit as one vectored batch.
	a := bytes.Repeat([]byte{0xA1}, 64*1024)
	b := bytes.Repeat([]byte{0xB2}, 64*1024)
	if err := c.Write(1, 0, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, 1<<20, b); err != nil {
		t.Fatal(err)
	}
	onDisk := make([]byte, len(a))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(onDisk, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, make([]byte, len(a))) {
		t.Fatal("write reached the file before any destage ran")
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(onDisk, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, a) {
		t.Fatal("Flush did not commit extent A through the batched pass")
	}
	if _, err := f.ReadAt(onDisk, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, b) {
		t.Fatal("Flush did not commit extent B through the batched pass")
	}
	d := srv.DiskStats()
	if d.DiskQBatches == 0 {
		t.Fatalf("destage issued no vectored batches: %+v", d)
	}
	if d.DirtyBlocks != 0 {
		t.Fatalf("dirty blocks remain after Flush: %d", d.DirtyBlocks)
	}
}

// TestDiskQCrashConsistency is the durability criterion with an
// unflushed tail: bytes acked and Flushed through the queue (batched
// destage runs + the fsync barrier SQE) must be readable after the
// server goes away mid-stream and a fresh process opens the file. The
// second write burst is deliberately left unflushed — a crash may lose
// it, but must not corrupt the flushed prefix.
func TestDiskQCrashConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	const size = 4 << 20
	fs, err := NewFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTunedServer(t, diskCfg(), shallowQ, fs)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	const flushed = 96
	for i := 0; i < flushed; i++ {
		if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{byte(i + 1)}, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	// Unflushed tail: dirty blocks whose batch may be cut off mid-flight.
	for i := flushed; i < flushed+32; i++ {
		if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{0xEE}, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	closeServer(t, srv)
	fs.Close()

	_, addr2 := startFileServer(t, diskCfg(), shallowQ, path, size)
	c2, err := Dial(addr2, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := make([]byte, 8192)
	for i := 0; i < flushed; i++ {
		if err := c2.Read(1, int64(i)*8192, got); err != nil {
			t.Fatalf("read block %d after restart: %v", i, err)
		}
		if got[0] != byte(i+1) || got[8191] != byte(i+1) {
			t.Fatalf("flushed block %d corrupted across restart: %d", i, got[0])
		}
	}
}

// TestDiskQPrefetchStream checks read-ahead over a file-backed volume
// (FileStore behind the queue's storeFile adapter): a sequential scan
// must trigger window fills submitted as vectored batches, and later demand
// reads must hit the installed blocks.
func TestDiskQPrefetchStream(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 512
	path := filepath.Join(t.TempDir(), "vol.img")
	srv, addr := startFileServer(t, cfg, tuning{}, path, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	for i := 0; i < 256; i++ {
		if err := c.Read(1, int64(i)*8192, buf); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			time.Sleep(time.Millisecond) // let the prefetch worker run ahead
		}
	}
	d := srv.DiskStats()
	if d.PrefetchFills == 0 {
		t.Fatal("sequential scan triggered no prefetch fills")
	}
	if d.PrefetchHits == 0 {
		t.Fatal("prefetched blocks were never hit")
	}
	t.Logf("prefetch fills=%d hits=%d batches=%d", d.PrefetchFills, d.PrefetchHits, d.DiskQBatches)
}

// TestDiskQStoreFaults wires a faultnet store fault injector (every Nth
// op fails, every Mth is short) under both halves of the pipeline and
// checks the error plumbing: injected failures surface as errors — never
// hangs, never wrong bytes on the ops that succeed — and the session
// survives all of it.
func TestDiskQStoreFaults(t *testing.T) {
	// Uncached volume: every request is a scheduler task doing one store
	// call, so a fault is that request's EIO.
	t.Run("uncached", func(t *testing.T) {
		flaky := faultnet.NewStore(NewMemStore(2<<20), faultnet.StoreConfig{ErrEvery: 7, ShortEvery: 11})
		srv, addr := startTunedServer(t, DefaultServerConfig(), tuning{}, flaky)
		c, err := Dial(addr, DefaultClientConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wErrs, rErrs, ok int
		data := bytes.Repeat([]byte{0x7C}, 8192)
		buf := make([]byte, 8192)
		for i := 0; i < 60; i++ {
			off := int64(i) * 8192
			if err := c.Write(1, off, data); err != nil {
				wErrs++
				continue
			}
			if err := c.Read(1, off, buf); err != nil {
				rErrs++
				continue
			}
			if !bytes.Equal(buf, data) {
				t.Fatalf("op %d: successful read returned wrong bytes under fault injection", i)
			}
			ok++
		}
		if wErrs+rErrs == 0 {
			t.Fatalf("fault injector never fired (ops=%d)", flaky.Ops())
		}
		if ok == 0 {
			t.Fatal("no operation survived fault injection")
		}
		t.Logf("faults: writeErrs=%d readErrs=%d ok=%d served=%d", wErrs, rErrs, ok, srv.Served())
	})
	// Cached volume: writes are acked as dirty blocks and the faults hit
	// the destage batches on the disk queue. A failed run stays dirty and
	// its error is sticky until the next Flush reports it; the Flush after
	// that retries the run. With destaging parked, each Flush is exactly
	// one store op, so the schedule fails flushes 7, 11, 14, ...
	t.Run("cached", func(t *testing.T) {
		inner := NewMemStore(2 << 20)
		flaky := faultnet.NewStore(inner, faultnet.StoreConfig{ErrEvery: 7, ShortEvery: 11})
		_, addr := startTunedServer(t, diskCfg(), parked, flaky)
		c, err := Dial(addr, DefaultClientConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const rounds = 16
		flushErrs := 0
		for i := 0; i < rounds; i++ {
			if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{byte(i + 1)}, 8192)); err != nil {
				t.Fatalf("round %d: absorbed write failed: %v", i, err)
			}
			err := c.Flush(1)
			for tries := 0; err != nil; tries++ {
				flushErrs++
				if tries == 3 {
					t.Fatalf("round %d: flush never recovered: %v", i, err)
				}
				err = c.Flush(1)
			}
		}
		if flushErrs == 0 {
			t.Fatalf("no Flush reported an injected destage fault (ops=%d)", flaky.Ops())
		}
		got := make([]byte, 8192)
		for i := 0; i < rounds; i++ {
			if err := inner.ReadAt(got, int64(i)*8192); err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(i+1) || got[8191] != byte(i+1) {
				t.Fatalf("block %d not on the store after a successful Flush", i)
			}
		}
	})
}

// TestDiskQChaosPartition is TestChaosDestagePartition over a file-backed
// volume, so the destage batches and the flush barrier reach a real file
// through FileStore: a transient blackhole
// mid-write-burst, hung peer detection, reconnection replay, then a flush
// barrier and full read-back — the queue must not change any of the
// recovery semantics.
func TestDiskQChaosPartition(t *testing.T) {
	scfg := DefaultServerConfig()
	scfg.CacheBlocks = 512
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "vol.img"), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	f, addr := startFaultServerStore(t, scfg, tuning{}, fs)
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 200 * time.Millisecond
	cfg.DialTimeout = 300 * time.Millisecond
	cfg.ReconnectBackoff = 100 * time.Millisecond
	cfg.MaxReconnects = 8
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	block := func(i int) []byte {
		b := make([]byte, 8192)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}
	for i := 0; i < 16; i++ {
		if err := c.Write(1, int64(i)*8192, block(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Inj.Blackhole(true)
	var handles []*Pending
	for i := 16; i < 24; i++ {
		h, err := c.WriteAsync(1, int64(i)*8192, block(i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	time.Sleep(600 * time.Millisecond)
	f.Inj.Blackhole(false)
	for i, h := range handles {
		if err := h.WaitTimeout(15 * time.Second); err != nil {
			t.Fatalf("partition write %d: %v (reconnects=%d)", i, err, c.Reconnects())
		}
	}
	if c.Reconnects() < 1 {
		t.Fatal("client never reconnected across the partition")
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	for i := 0; i < 24; i++ {
		if err := c.Read(1, int64(i)*8192, got); err != nil {
			t.Fatalf("read-back %d: %v", i, err)
		}
		if !bytes.Equal(got, block(i)) {
			t.Fatalf("block %d corrupted across partition", i)
		}
	}
}

// TestDiskQFlushSurfacesSyncError checks the Flush barrier's error path:
// a store whose next Sync fails must turn the wire-level Flush into an
// error — through the queue's fsync completion on a cached volume, and
// through the flush task's direct Sync on an uncached one — not
// swallowed by either.
func TestDiskQFlushSurfacesSyncError(t *testing.T) {
	for _, cacheBlocks := range []int{256, 0} {
		flaky := faultnet.NewStore(NewMemStore(1<<20), faultnet.StoreConfig{})
		_, addr := startTunedServer(t, ServerConfig{CacheBlocks: cacheBlocks}, tuning{}, flaky)
		c, err := Dial(addr, DefaultClientConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Write(1, 0, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		flaky.FailNextSync(faultnet.ErrInjected)
		if err := c.Flush(1); err == nil {
			t.Fatalf("cache %d: flush succeeded despite injected fsync failure", cacheBlocks)
		}
		if err := c.Flush(1); err != nil {
			t.Fatalf("cache %d: flush did not recover after one-shot sync fault: %v", cacheBlocks, err)
		}
	}
}
