package netv3

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// diskCfg is a server config with the cached disk path on. Paired with
// parked, it leaves destage timing to the test: only Flush and the
// high-watermark move dirty blocks.
func diskCfg() ServerConfig {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 256
	return cfg
}

// parked is the tuning that effectively disables background destaging
// (hour-long interval).
var parked = tuning{destageInterval: time.Hour}

func startFileServer(t *testing.T, cfg ServerConfig, tune tuning, path string, size int64) (*Server, string) {
	t.Helper()
	fs, err := NewFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() }) // runs after the server's own cleanup
	return startTunedServer(t, cfg, tune, fs)
}

// TestDiskPathConcurrentMixed runs concurrent readers, writers, and
// flushers against a file-backed cached volume and checks every byte that
// comes back.
func TestDiskPathConcurrentMixed(t *testing.T) {
	tune := tuning{destageInterval: time.Millisecond} // let the destager race the I/O
	path := filepath.Join(t.TempDir(), "vol.img")
	_, addr := startFileServer(t, diskCfg(), tune, path, 8<<20)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, DefaultClientConfig())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			region := int64(g) * (2 << 20) // disjoint 2 MB region per goroutine
			buf := make([]byte, 8192)
			for iter := 0; iter < 20; iter++ {
				off := region + int64(iter)*8192
				data := bytes.Repeat([]byte{byte(g*31 + iter + 1)}, 8192)
				if err := c.Write(1, off, data); err != nil {
					errs <- fmt.Errorf("g%d write: %w", g, err)
					return
				}
				if err := c.Read(1, off, buf); err != nil {
					errs <- fmt.Errorf("g%d read: %w", g, err)
					return
				}
				if !bytes.Equal(buf, data) {
					errs <- fmt.Errorf("g%d iter %d: read back wrong bytes", g, iter)
					return
				}
				if iter%5 == 4 {
					if err := c.Flush(1); err != nil {
						errs <- fmt.Errorf("g%d flush: %w", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWriteBehindIsBehind proves writes are acknowledged before the
// store sees them: with background destaging parked, an acked write is
// readable through the protocol while the backing file still holds
// zeros, and Flush is what moves the bytes to disk.
func TestWriteBehindIsBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	srv, addr := startFileServer(t, diskCfg(), parked, path, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0xAB}, 16384)
	if err := c.Write(1, 8192, data); err != nil {
		t.Fatal(err)
	}
	if d := srv.DiskStats(); d.DirtyBlocks == 0 {
		t.Fatal("acked write produced no dirty blocks")
	}
	onDisk := make([]byte, len(data))
	readFile := func() {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.ReadAt(onDisk, 8192); err != nil {
			t.Fatal(err)
		}
	}
	readFile()
	if !bytes.Equal(onDisk, make([]byte, len(data))) {
		t.Fatal("write reached the file before any destage ran")
	}
	got := make([]byte, len(data))
	if err := c.Read(1, 8192, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("acked write not readable through the protocol")
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	readFile()
	if !bytes.Equal(onDisk, data) {
		t.Fatal("Flush did not move acked bytes to the file")
	}
	d := srv.DiskStats()
	if d.DirtyBlocks != 0 {
		t.Fatalf("dirty blocks remain after Flush: %d", d.DirtyBlocks)
	}
	if d.DestageRuns == 0 || d.DestagedBlocks == 0 {
		t.Fatal("flush recorded no destage activity")
	}
	// Two adjacent dirty blocks must have coalesced: some run carried more
	// than one block.
	if d.DestagedBlocks <= d.DestageRuns {
		t.Fatalf("no coalesced destage run recorded: %d blocks in %d runs", d.DestagedBlocks, d.DestageRuns)
	}
}

// TestFlushCrashConsistency checks the acceptance criterion directly:
// data acked and then Flushed is readable after the server process goes
// away and a new one opens the same file.
func TestFlushCrashConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	const size = 1 << 20
	fs, err := NewFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTunedServer(t, diskCfg(), parked, fs)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xC4}, 24576)
	if err := c.Write(1, 4096, data); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	// "Crash": drop the client and server without any orderly destage
	// beyond what Flush already guaranteed.
	c.Close()
	closeServer(t, srv)
	fs.Close()

	_, addr2 := startFileServer(t, diskCfg(), parked, path, size)
	c2, err := Dial(addr2, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := make([]byte, len(data))
	if err := c2.Read(1, 4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("flushed data lost across server restart")
	}
}

// TestReconnectMidDestage severs the connection while dirty blocks are
// in flight to the destager; the client's replay plus Flush must still
// leave every byte correct and durable.
func TestReconnectMidDestage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	_, addr := startFileServer(t, diskCfg(), tuning{destageInterval: time.Millisecond}, path, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const blocks = 64
	pending := make([]*Pending, 0, blocks)
	for i := 0; i < blocks; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 8192)
		h, err := c.WriteAsync(1, int64(i)*8192, data)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, h)
		if i == blocks/2 {
			c.KillConnForTest()
		}
	}
	for _, h := range pending {
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	for i := 0; i < blocks; i++ {
		if err := c.Read(1, int64(i)*8192, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) || got[8191] != byte(i+1) {
			t.Fatalf("block %d corrupted after reconnect: %d", i, got[0])
		}
	}
	if c.Reconnects() == 0 {
		t.Fatal("test never exercised the reconnect path")
	}
}

// TestDirtyHighWaterFallsBackToWriteThrough checks the backpressure
// valve: once uncommitted blocks reach the watermark, a write goes to a
// worker that destages before it absorbs, so dirty state stays at the
// watermark, and every byte reads back and reaches the store.
func TestDirtyHighWaterFallsBackToWriteThrough(t *testing.T) {
	tune := parked
	tune.dirtyHighWater = 4
	path := filepath.Join(t.TempDir(), "vol.img")
	srv, addr := startFileServer(t, diskCfg(), tune, path, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 16; i++ {
		if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{byte(i + 1)}, 8192)); err != nil {
			t.Fatal(err)
		}
		if d := srv.DiskStats().DirtyBlocks; d > 4 {
			t.Fatalf("after write %d: %d dirty blocks, watermark 4", i, d)
		}
	}
	if d := srv.DiskStats(); d.PressuredWrites == 0 || d.DestageRuns == 0 {
		t.Fatalf("watermark never made a write destage first: %d pressured writes, %d runs", d.PressuredWrites, d.DestageRuns)
	}
	got := make([]byte, 8192)
	for i := 0; i < 16; i++ {
		if err := c.Read(1, int64(i)*8192, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i+1) {
			t.Fatalf("block %d wrong after fallback: %d", i, got[0])
		}
	}
	if err := c.Flush(1); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if onDisk[i*8192] != byte(i+1) {
			t.Fatalf("block %d not on disk after Flush", i)
		}
	}
}

// shardMate is the first block after blk in blk's shard of a cache with
// every shard.
func shardMate(blk int64) int64 {
	c := blockCache{mask: cacheShards - 1}
	for m := blk + 1; ; m++ {
		if c.shardOf(uint64(m)) == c.shardOf(uint64(blk)) {
			return m
		}
	}
}

// TestSessionLoopNeverWaitsOnStore pins the session loop's dispatch rule
// on a cache of one or two slots per shard over a store whose writes (or
// reads) park until the test opens the gate. A request that needs the
// store — a write waiting on a destage pass to unpin a shard held wall to
// wall by a dirty block, a write filling the block it only half covers, a
// read missing a block — goes to a worker, and a cache hit queued behind it
// on the same connection is answered while the store call is still parked.
// In the last case the hit is in the missed block's shard: a miss fill
// reads the store with the shard lock released.
func TestSessionLoopNeverWaitsOnStore(t *testing.T) {
	block := func(b byte) []byte { return bytes.Repeat([]byte{b}, cacheBlockSize) }
	for _, tc := range []struct {
		name      string
		perShard  int  // cache slots per shard
		parkReads bool // else writes park
		read      bool // the request that needs the store is a read, else a write
		off       int64
		n         int
		hit       int64 // the block the queued cache hit reads
		pressured int64
	}{
		{"pinned-full shard", 1, false, false, shardMate(0) * cacheBlockSize, cacheBlockSize, 1, 1},
		{"partial non-resident block", 1, true, false, 2 * cacheBlockSize, 4096, 1, 0},
		{"miss fill with a hit in its shard", 2, true, true, shardMate(0) * cacheBlockSize, cacheBlockSize, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gs := newGateStore(64*cacheBlockSize, math.MaxInt32, tc.parkReads)
			srv, addr := startTunedServer(t, ServerConfig{CacheBlocks: tc.perShard * cacheShards}, parked, gs)
			open := func() { gs.once.Do(func() { close(gs.open) }) }
			defer open() // before the server's cleanup, whose final pass writes
			c, err := Dial(addr, quietClientConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// Blocks 0 and 1 go resident and dirty without a store call, each
			// in its own shard.
			for blk := int64(0); blk < 2; blk++ {
				if err := c.Write(1, blk*cacheBlockSize, block(byte(blk+1))); err != nil {
					t.Fatal(err)
				}
			}
			data := bytes.Repeat([]byte{0xEE}, tc.n)
			var hs *Pending
			if tc.read {
				got := make([]byte, tc.n)
				hs, err = c.ReadAsync(1, tc.off, got)
				data = make([]byte, tc.n) // never written: reads as zeros
				// The miss must be inside the store before the hit is sent.
				for deadline := time.Now().Add(5 * time.Second); gs.inflight.Load() == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the miss never reached the store")
					}
				}
			} else {
				hs, err = c.WriteAsync(1, tc.off, data)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, cacheBlockSize)
			hr, err := c.ReadAsync(1, tc.hit*cacheBlockSize, got)
			if err != nil {
				t.Fatal(err)
			}
			if err := hr.WaitTimeout(2 * time.Second); err != nil {
				t.Fatalf("cache hit queued behind the store call: %v (the session loop is waiting on the store)", err)
			}
			if !bytes.Equal(got, block(byte(tc.hit+1))) {
				t.Fatal("cache hit returned the wrong bytes")
			}
			if hs.Done() {
				t.Fatal("the request that needs the store completed with the store gate shut")
			}
			open()
			if err := hs.WaitTimeout(5 * time.Second); err != nil {
				t.Fatalf("the request after the gate opened: %v", err)
			}
			want := make([]byte, cacheBlockSize)
			copy(want[tc.off%cacheBlockSize:], data)
			if err := c.Read(1, tc.off-tc.off%cacheBlockSize, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the block reads back wrong")
			}
			if n := srv.DiskStats().PressuredWrites; n != tc.pressured {
				t.Fatalf("%d pressured writes, want %d", n, tc.pressured)
			}
		})
	}
}

// TestFailingStoreRefusesPressuredWrite: a write that must make room on a
// dead store is refused with EIO within a bound — the worker's destage
// pass fails and leaves the shard full, and the worker does not spin on
// it — and the pass's error stays sticky, so the next Flush reports it
// even though the store has healed by then.
func TestFailingStoreRefusesPressuredWrite(t *testing.T) {
	flaky := faultnet.NewStore(NewMemStore(64*cacheBlockSize), faultnet.StoreConfig{})
	_, addr := startTunedServer(t, ServerConfig{CacheBlocks: cacheShards}, parked, flaky)
	c, err := Dial(addr, quietClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := bytes.Repeat([]byte{0x11}, cacheBlockSize)
	if err := c.Write(1, 0, first); err != nil { // shard 0's one slot, dirty
		t.Fatal(err)
	}
	flaky.FailAll(true)
	h, err := c.WriteAsync(1, shardMate(0)*cacheBlockSize, make([]byte, cacheBlockSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitTimeout(5 * time.Second); err == nil || err.Error() != wire.StatusEIO.Err().Error() {
		t.Fatalf("write to a full shard on a dead store = %v, want %v", err, wire.StatusEIO.Err())
	}
	flaky.FailAll(false)
	if err := c.Flush(1); err == nil {
		t.Fatal("Flush after the refused write lost the sticky destage error")
	}
	if err := c.Flush(1); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	got := make([]byte, cacheBlockSize)
	if err := c.Read(1, 0, got); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("the acked block reads back wrong (err %v)", err)
	}
}

// TestPrefetchSequentialStream drives a sequential scan over a RAM
// volume and checks the read-ahead pipeline: blocks get installed ahead
// of the reader and later demand reads hit them.
func TestPrefetchSequentialStream(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 512
	srv, addr := startServer(t, cfg, 4<<20)
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
	t.Logf("prefetch fills=%d hits=%d dropped=%d", d.PrefetchFills, d.PrefetchHits, d.PrefetchDropped)
}

// TestFlushUnknownVolume: the barrier on a nonexistent volume must fail
// cleanly, not hang or kill the session.
func TestFlushUnknownVolume(t *testing.T) {
	_, addr := startTunedServer(t, diskCfg(), parked, NewMemStore(1<<20))
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Flush(42); err == nil {
		t.Fatal("flush of unknown volume should fail")
	}
	if err := c.Flush(1); err != nil {
		t.Fatalf("session unusable after failed flush: %v", err)
	}
}

// TestFileStoreShortReadContext truncates the backing file underneath a
// FileStore and checks the error names the exact extent, so an EIO in a
// server log can be traced to bytes on disk.
func TestFileStoreShortReadContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	fs, err := NewFileStore(path, 65536)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	err = fs.ReadAt(make([]byte, 8192), 8192)
	if err == nil {
		t.Fatal("read past truncation point should fail")
	}
	if !strings.Contains(err.Error(), "[8192,+8192)") {
		t.Fatalf("error lacks extent context: %v", err)
	}
}

// TestFileStoreWritesInPieces checks FileStore.WriteAt's piece loop: every
// cut sits on a filePiece boundary, a write spanning many pieces from an
// unaligned offset lands byte-identical (seen through ReadAt and through the
// file itself), a multi-piece write may end exactly at the volume's end, and
// a write to a closed file is an error naming the extent.
func TestFileStoreWritesInPieces(t *testing.T) {
	const size = 4 << 20
	for _, c := range []struct{ off, end int64 }{
		{0, size}, {12 << 10, 12<<10 + 1<<20 + 12<<10}, {filePiece - 8192, filePiece + 8192}, {8192, 16384},
	} {
		for at := c.off; at < c.end; {
			next := pieceEnd(at, c.end)
			if next <= at || next-at > filePiece || (next != c.end && next%filePiece != 0) {
				t.Fatalf("[%d,%d): piece [%d,%d) is not cut on a %d-byte boundary", c.off, c.end, at, next, filePiece)
			}
			at = next
		}
	}

	path := filepath.Join(t.TempDir(), "vol.img")
	fs, err := NewFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7) + seed
		}
		return b
	}
	want := make([]byte, size)
	for _, w := range []struct {
		off int64
		b   []byte
	}{
		{12 << 10, pattern(1<<20+12<<10, 1)},                      // unaligned start, 17 pieces
		{size - 3*filePiece - 8192, pattern(3*filePiece+8192, 2)}, // ends at the volume's end
	} {
		if err := fs.WriteAt(w.b, w.off); err != nil {
			t.Fatalf("WriteAt [%d,+%d): %v", w.off, len(w.b), err)
		}
		copy(want[w.off:], w.b)
	}
	got := make([]byte, size)
	if err := fs.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadAt differs from what was written")
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatal("backing file differs from what was written")
	}

	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	err = fs.WriteAt(make([]byte, 2*filePiece), 8192)
	if err == nil {
		t.Fatal("write to a closed file store should fail")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("[8192,+%d)", 2*filePiece)) {
		t.Fatalf("error lacks extent context: %v", err)
	}
}

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

// TestMaliciousOffset drives hostile extents through the wire protocol: a
// read or write at an offset chosen to wrap the range check must come back
// as EINVAL — not a server panic — and the session must remain fully
// usable afterwards.
func TestMaliciousOffset(t *testing.T) {
	_, addr := startTunedServer(t, ServerConfig{CacheBlocks: 256}, parked, NewMemStore(1<<20))
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8192)
	einval := wire.StatusEInval.Err().Error()
	for _, off := range []int64{math.MaxInt64 - 4095, math.MaxInt64 - 8191, 1 << 40} {
		if err := c.Read(1, off, buf); err == nil || err.Error() != einval {
			t.Fatalf("read at hostile offset %d: %v, want EINVAL", off, err)
		}
		if err := c.Write(1, off, buf); err == nil || err.Error() != einval {
			t.Fatalf("write at hostile offset %d: %v, want EINVAL", off, err)
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

// TestDestageBatches checks a multi-run pass end to end: with background
// destaging parked, acked writes stay out of the file until Flush, whose
// pass then commits both separated extents as one coalesced run each and
// leaves the bytes on disk.
func TestDestageBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	srv, addr := startFileServer(t, diskCfg(), parked, path, 4<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two separated dirty extents → the pass has two runs to write.
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
		t.Fatal("Flush did not commit extent A")
	}
	if _, err := f.ReadAt(onDisk, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, b) {
		t.Fatal("Flush did not commit extent B")
	}
	d := srv.DiskStats()
	// 64 KB is 8 blocks: two runs of 8 blocks each.
	if d.DestageRuns != 2 || d.DestagedBlocks != 16 {
		t.Fatalf("want two 8-block runs, got runs=%d blocks=%d", d.DestageRuns, d.DestagedBlocks)
	}
	if d.DirtyBlocks != 0 {
		t.Fatalf("dirty blocks remain after Flush: %d", d.DirtyBlocks)
	}
}

// TestCrashConsistency is the durability criterion with an unflushed
// tail: bytes acked and Flushed (a multi-run destage pass, then the
// store's Sync) must be readable after the server goes away mid-stream
// and a fresh process opens the file. The second write burst is
// deliberately left unflushed — a crash may lose it, but must not corrupt
// the flushed prefix.
func TestCrashConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	const size = 4 << 20
	fs, err := NewFileStore(path, size)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTunedServer(t, diskCfg(), parked, fs)
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
	// Unflushed tail: dirty blocks whose pass may be cut off mid-flight.
	for i := flushed; i < flushed+32; i++ {
		if err := c.Write(1, int64(i)*8192, bytes.Repeat([]byte{0xEE}, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	closeServer(t, srv)
	fs.Close()

	_, addr2 := startFileServer(t, diskCfg(), parked, path, size)
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

// TestPrefetchStream is TestPrefetchSequentialStream over a file-backed
// volume: a sequential scan must trigger window fills read from the
// FileStore, and later demand reads must hit the installed blocks.
func TestPrefetchStream(t *testing.T) {
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
	t.Logf("prefetch fills=%d hits=%d dropped=%d", d.PrefetchFills, d.PrefetchHits, d.PrefetchDropped)
}

// TestStoreFaults wires a faultnet store fault injector (every Nth op
// fails, every Mth is short) under the pipeline and checks the error
// plumbing: injected failures surface as errors — never hangs, never
// wrong bytes on the ops that succeed — and the session survives all of
// it.
func TestStoreFaults(t *testing.T) {
	// Writes are acked as dirty blocks and the faults hit the destage
	// runs. A failed run stays dirty and its error is sticky
	// until the next Flush reports it; the Flush after that retries the
	// run. With destaging parked, each Flush is exactly one store op, so
	// the schedule fails flushes 7, 11, 14, ...
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

// TestChaosPartition is TestChaosDestagePartition over a file-backed
// volume, so the destage runs and the flush barrier reach a real file
// through FileStore: a transient blackhole mid-write-burst, hung peer
// detection, reconnection replay, then a flush barrier and full
// read-back — a real file below the cache must not change any of the
// recovery semantics.
func TestChaosPartition(t *testing.T) {
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
	// Heal once the keepalive has declared the peer hung, inside the
	// retry budget.
	waitFor(t, "hung-peer detection", func() bool { return c.Stats().HungDetections >= 1 })
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

// TestFlushSurfacesSyncError checks the Flush barrier's error path: a
// store whose next Sync fails must turn the wire-level Flush, after its
// destage pass, into an error — not swallow it.
func TestFlushSurfacesSyncError(t *testing.T) {
	flaky := faultnet.NewStore(NewMemStore(1<<20), faultnet.StoreConfig{})
	_, addr := startTunedServer(t, ServerConfig{CacheBlocks: 256}, tuning{}, flaky)
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
		t.Fatal("flush succeeded despite injected fsync failure")
	}
	if err := c.Flush(1); err != nil {
		t.Fatalf("flush did not recover after one-shot sync fault: %v", err)
	}
}

// gateStore is a MemStore whose WriteAt (or, with parkReads, ReadAt)
// parks until width calls are inside it at once and flows freely from then
// on: a caller that issues its extents one at a time — or fewer than
// width at a time — deadlocks into the test timeout. It records the most
// calls ever in flight.
type gateStore struct {
	*MemStore
	parkReads bool
	width     int32

	inflight, most atomic.Int32
	once           sync.Once
	open           chan struct{}
}

func newGateStore(size int64, width int, parkReads bool) *gateStore {
	return &gateStore{MemStore: NewMemStore(size), parkReads: parkReads, width: int32(width), open: make(chan struct{})}
}

func (s *gateStore) gate() {
	n := s.inflight.Add(1)
	for m := s.most.Load(); n > m && !s.most.CompareAndSwap(m, n); m = s.most.Load() {
	}
	if n >= s.width {
		s.once.Do(func() { close(s.open) })
	}
	<-s.open
}

func (s *gateStore) WriteAt(b []byte, off int64) error {
	if !s.parkReads {
		s.gate()
		defer s.inflight.Add(-1)
	}
	return s.MemStore.WriteAt(b, off)
}

func (s *gateStore) ReadAt(b []byte, off int64) error {
	if s.parkReads {
		s.gate()
		defer s.inflight.Add(-1)
	}
	return s.MemStore.ReadAt(b, off)
}

// storeCall is one call recordStore logged: a write of n bytes at off, or
// a Sync.
type storeCall struct {
	sync   bool
	off, n int64
}

// recordStore is a MemStore that logs its calls in the order a Flush
// barrier is about: each WriteAt that succeeded when it returns, each Sync
// when it starts. It records the most WriteAts ever in flight at once and
// fails the write at failOff (set only while no pass is running).
type recordStore struct {
	*MemStore
	failOff        int64
	inflight, most atomic.Int32

	mu  sync.Mutex
	log []storeCall
}

func newRecordStore(size int64) *recordStore {
	return &recordStore{MemStore: NewMemStore(size), failOff: -1}
}

func (s *recordStore) record(c storeCall) {
	s.mu.Lock()
	s.log = append(s.log, c)
	s.mu.Unlock()
}

func (s *recordStore) calls() []storeCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.log)
}

func (s *recordStore) WriteAt(b []byte, off int64) error {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for m := s.most.Load(); n > m && !s.most.CompareAndSwap(m, n); m = s.most.Load() {
	}
	runtime.Gosched() // a concurrent writer, if any, gets in while this one is inside
	if off == s.failOff {
		return faultnet.ErrInjected
	}
	if err := s.MemStore.WriteAt(b, off); err != nil {
		return err
	}
	s.record(storeCall{off: off, n: int64(len(b))})
	return nil
}

func (s *recordStore) Sync() error {
	s.record(storeCall{sync: true})
	return s.MemStore.Sync()
}

// TestDestagePassWritesInOrder pins the shape of a destage pass: its runs
// reach the store one at a time, in ascending offset order. A 200-run
// pass — every even block up to 400, and block 11, which joins 10 and 12
// into the one three-block run, made to fail — sees at most one store
// write in flight; the failed run leaves exactly its own blocks dirty and
// its error sticky until the next Flush, whose retry commits them.
func TestDestagePassWritesInOrder(t *testing.T) {
	const volBlks = 512
	block := func(blk uint64) []byte { return bytes.Repeat([]byte{byte(blk%251 + 1)}, cacheBlockSize) }

	rs := newRecordStore(volBlks * cacheBlockSize)
	srv := newServer(ServerConfig{CacheBlocks: 1024}, parked)
	defer closeServer(t, srv)
	srv.AddVolume(1, rs)
	v := srv.lookup(1)
	dirty := []uint64{11}
	for blk := uint64(0); blk <= 400; blk += 2 {
		dirty = append(dirty, blk)
	}
	for _, blk := range dirty {
		if _, err := v.absorbWrite(block(blk), int64(blk)*cacheBlockSize, false); err != nil {
			t.Fatal(err)
		}
	}
	rs.failOff = 10 * cacheBlockSize
	if err := v.wb.destageAll(); !errors.Is(err, faultnet.ErrInjected) { // and it sticks
		t.Fatalf("pass over the failing run = %v, want the injected error", err)
	}
	if got := rs.most.Load(); got != 1 {
		t.Fatalf("most store writes in flight = %d, want 1", got)
	}
	writes := rs.calls()
	if !slices.IsSortedFunc(writes, func(a, b storeCall) int { return cmp.Compare(a.off, b.off) }) {
		t.Fatalf("pass wrote its runs out of offset order: %v", writes)
	}
	if d := srv.DiskStats(); d.DestageRuns != 199 || d.DestagedBlocks != 199 || len(writes) != 199 {
		t.Fatalf("pass committed %d runs / %d blocks in %d store writes, want 199 / 199 / 199", d.DestageRuns, d.DestagedBlocks, len(writes))
	}
	if left := v.cache.dirtySnapshot(nil); !slices.Equal(left, []uint64{10, 11, 12}) {
		t.Fatalf("dirty after the failed run = %v, want exactly its blocks [10 11 12]", left)
	}
	checkPinInvariant(t, v.cache)

	// The store heals. The next Flush retries the run and commits it, yet
	// still reports the sticky error; the one after is clean.
	rs.failOff = -1
	if err := v.wb.flush(); !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("flush after a failed background run = %v, want the sticky injected error", err)
	}
	if n := v.cache.dirtyCount.Load(); n != 0 {
		t.Fatalf("%d dirty blocks after the retry pass", n)
	}
	if err := v.wb.flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	if got := rs.most.Load(); got != 1 {
		t.Fatalf("most store writes in flight = %d, want 1", got)
	}
	got := make([]byte, cacheBlockSize)
	for _, blk := range dirty {
		if err := rs.MemStore.ReadAt(got, int64(blk)*cacheBlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, block(blk)) {
			t.Fatalf("block %d not on the store after a clean flush", blk)
		}
	}
}

// TestFlushSyncsAfterItsWrites pins the Flush barrier's order: the store's
// Sync starts only once the destage write of every block the Flush covers
// has returned, and the Flush leaves nothing dirty. A Sync issued before
// the pass, or none at all, would ack writes it never made durable.
func TestFlushSyncsAfterItsWrites(t *testing.T) {
	rs := newRecordStore(64 * cacheBlockSize)
	srv := newServer(ServerConfig{CacheBlocks: 256}, parked)
	defer closeServer(t, srv)
	srv.AddVolume(1, rs)
	v := srv.lookup(1)
	dirty := []uint64{0, 1, 2, 5, 9, 10, 11, 12, 63} // runs [0,2], [5], [9,12], [63]
	for _, blk := range dirty {
		if _, err := v.absorbWrite(bytes.Repeat([]byte{byte(blk + 1)}, cacheBlockSize), int64(blk)*cacheBlockSize, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.wb.flush(); err != nil {
		t.Fatal(err)
	}
	log := rs.calls()
	at := slices.IndexFunc(log, func(c storeCall) bool { return c.sync })
	if at < 0 {
		t.Fatalf("Flush never synced the store: %v", log)
	}
	written := map[uint64]bool{}
	for _, c := range log[:at] {
		for blk := c.off / cacheBlockSize; blk*cacheBlockSize < c.off+c.n; blk++ {
			written[uint64(blk)] = true
		}
	}
	for _, blk := range dirty {
		if !written[blk] {
			t.Fatalf("block %d's destage write had not returned when Sync started: %v", blk, log)
		}
	}
	if n := v.cache.dirtyCount.Load(); n != 0 {
		t.Fatalf("%d dirty blocks after Flush", n)
	}
}

// parkStore is a recordStore whose first WriteAt closes entered and parks
// until release is closed.
type parkStore struct {
	*recordStore
	once             sync.Once
	entered, release chan struct{}
}

func (s *parkStore) WriteAt(b []byte, off int64) error {
	s.once.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.recordStore.WriteAt(b, off)
}

// TestFlushWaitsOutBackgroundRun: a Flush issued while a background pass's
// run is inside the store finds nothing dirty — staging took the run's
// block out of the count — and must still wait that write out before it
// syncs. Flush does not return while the write is parked, and the store
// sees the write return before Sync starts.
func TestFlushWaitsOutBackgroundRun(t *testing.T) {
	ps := &parkStore{recordStore: newRecordStore(64 * cacheBlockSize), entered: make(chan struct{}), release: make(chan struct{})}
	srv := newServer(ServerConfig{CacheBlocks: 256}, tuning{destageInterval: time.Millisecond})
	defer closeServer(t, srv)
	var unpark sync.Once
	defer unpark.Do(func() { close(ps.release) }) // before the close, which waits for a final pass
	srv.AddVolume(1, ps)
	v := srv.lookup(1)
	if _, err := v.absorbWrite(bytes.Repeat([]byte{7}, cacheBlockSize), 5*cacheBlockSize, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ps.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no background pass reached the store")
	}
	if n := v.cache.dirtyCount.Load(); n != 0 {
		t.Fatalf("%d blocks counted dirty with the pass's one run staged", n)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- v.wb.flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) while the run it covers was parked in the store", err)
	case <-time.After(50 * time.Millisecond):
	}
	unpark.Do(func() { close(ps.release) })
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	calls := ps.calls()
	if len(calls) != 2 || calls[0] != (storeCall{off: 5 * cacheBlockSize, n: cacheBlockSize}) || !calls[1].sync {
		t.Fatalf("store calls %v, want the parked write, then Sync", calls)
	}
}

// lineCounter is a log destination that counts the lines naming a destage.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("destage")) {
		c.n.Add(1)
	}
	return len(p), nil
}

// TestDestageFailureLoggedOncePerEpisode: a store that keeps failing is
// logged once, not once per pass or per run. Fifty passes over two failing
// runs log one line; a clean pass ends the episode, so the next failure is
// logged although the sticky error is still set; a Flush takes the sticky
// error, so the pass after it logs again.
func TestDestageFailureLoggedOncePerEpisode(t *testing.T) {
	var lines lineCounter
	flaky := faultnet.NewStore(NewMemStore(64*cacheBlockSize), faultnet.StoreConfig{})
	srv := newServer(ServerConfig{CacheBlocks: 256, Logger: log.New(&lines, "", 0)}, parked)
	defer closeServer(t, srv)
	srv.AddVolume(1, flaky)
	v := srv.lookup(1)
	absorb := func(blks ...int64) {
		t.Helper()
		for _, blk := range blks {
			if _, err := v.absorbWrite(make([]byte, cacheBlockSize), blk*cacheBlockSize, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	passes := func(n int, want int64) {
		t.Helper()
		for i := 0; i < n; i++ {
			v.wb.destageAll()
		}
		if got := lines.n.Load(); got != want {
			t.Fatalf("%d destage lines logged, want %d", got, want)
		}
	}
	flaky.FailAll(true)
	absorb(0, 10) // two runs
	passes(50, 1)
	flaky.FailAll(false)
	passes(1, 1)
	if n := v.cache.dirtyCount.Load(); n != 0 {
		t.Fatalf("%d blocks dirty after a clean pass", n)
	}
	flaky.FailAll(true)
	absorb(3)
	passes(50, 2)
	if err := v.wb.flush(); err == nil {
		t.Fatal("Flush over a failing store succeeded")
	}
	passes(50, 3)
}

// TestReadAheadWindowReadsOverlap is the evidence that a read-ahead
// window's store reads are issued together on a store that blocks: a
// strided window of 8 scattered blocks, against a store that returns no
// read until all 8 are inside it, completes (a serial loop hangs) and
// installs every block with the store's bytes.
func TestReadAheadWindowReadsOverlap(t *testing.T) {
	const volBlks = 512
	block := func(blk uint64) []byte { return bytes.Repeat([]byte{byte(blk%251 + 1)}, cacheBlockSize) }

	gs := newGateStore(volBlks*cacheBlockSize, minPrefetchBlocks, true)
	window := make([]uint64, minPrefetchBlocks)
	for i := range window {
		window[i] = uint64(3 * i)
		if err := gs.MemStore.WriteAt(block(window[i]), int64(window[i])*cacheBlockSize); err != nil {
			t.Fatal(err)
		}
	}
	srv := newServer(ServerConfig{CacheBlocks: 1024}, parked)
	defer closeServer(t, srv)
	srv.AddVolume(1, gs)
	rv := srv.lookup(1)
	if err := rv.pf.fillBatched(srv, window); err != nil {
		t.Fatal(err)
	}
	if got := gs.most.Load(); got != minPrefetchBlocks {
		t.Fatalf("most store reads in flight = %d, want %d", got, minPrefetchBlocks)
	}
	got := make([]byte, cacheBlockSize)
	for _, blk := range window {
		if !rv.tryCachedRead(got, int64(blk)*cacheBlockSize) || !bytes.Equal(got, block(blk)) {
			t.Fatalf("read-ahead block %d not installed with the store's bytes", blk)
		}
	}
}

// TestIdleDestagerDoesNothing pins what a destage tick costs a volume with
// nothing dirty: nothing. Fifty periods of a 1 ms destager over an idle
// cached volume record no pass — a pass takes every shard lock — and put
// no task on the scheduler's background lane; one absorbed write later, a
// pass is recorded within the next ticks, still on the destager's own
// goroutine.
func TestIdleDestagerDoesNothing(t *testing.T) {
	reg := obs.New()
	cfg := diskCfg()
	cfg.Metrics = reg
	srv := newServer(cfg, tuning{destageInterval: time.Millisecond})
	defer closeServer(t, srv)
	srv.AddVolume(1, NewMemStore(1<<20))
	passes := func() int64 { return reg.Hist("netv3_srv_destage_run_ns").Snapshot().Count() }

	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for i := 0; i < 50; i++ {
		<-tick.C
	}
	if n, bg := passes(), srv.SchedStats().BGDone; n != 0 || bg != 0 {
		t.Fatalf("idle volume: %d destage passes recorded, %d background-lane tasks run; want none of either", n, bg)
	}

	v := srv.lookup(1)
	if _, err := v.absorbWrite(make([]byte, cacheBlockSize), 0, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; passes() == 0 || v.cache.dirtyCount.Load() != 0; i++ {
		if i == 5000 {
			t.Fatalf("no pass %d ticks after a write: passes=%d dirty=%d", i, passes(), v.cache.dirtyCount.Load())
		}
		<-tick.C
	}
	if d, bg := srv.DiskStats(), srv.SchedStats().BGDone; d.DestagedBlocks != 1 || bg != 0 {
		t.Fatalf("after one write: %d blocks destaged, %d background-lane tasks; want 1 and 0", d.DestagedBlocks, bg)
	}
}
