package netv3

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
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
	// Two adjacent dirty blocks must have coalesced: at least one run of
	// more than one block in the batch histogram.
	coalesced := int64(0)
	for i := 1; i < len(d.DestageBatchHist); i++ {
		coalesced += d.DestageBatchHist[i]
	}
	if coalesced == 0 {
		t.Fatalf("no coalesced destage run recorded: hist %v", d.DestageBatchHist)
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
// valve: once uncommitted blocks reach the watermark, writes take the
// synchronous path (and stay correct) instead of growing dirty state.
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
	}
	if d := srv.DiskStats(); d.WriteThroughFallbacks == 0 {
		t.Fatal("watermark never triggered write-through fallback")
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
}

// TestPrefetchSequentialStream drives a sequential scan over a RAM
// volume (the disk queue's portable backend) and checks the read-ahead
// pipeline: blocks get installed ahead of the reader and later demand
// reads hit them.
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
