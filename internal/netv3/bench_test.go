package netv3

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"
)

// These benchmarks record nothing: benchmark/ is the repository's one
// measurement (benchmark/README.md). They are the three things it has no
// rung for and PRs have reached for while working: the QD1 round trip, a
// store that sleeps (a 150 µs time.Sleep measures the Go timer floor, so it
// shows overlap, not device speed), and the kernel's price for overwriting
// file pages that one large write created.

// benchPair starts a server with a 32 MB cache — the cached-read
// benchmarks cycle over at most that much — and a client, for one
// benchmark run.
func benchPair(b *testing.B) *Client {
	b.Helper()
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 4096
	_, addr := startServer(b, cfg, 64<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// pipelineReads keeps `outstanding` reads in flight for b.N total ops and
// returns wall-clock elapsed.
func pipelineReads(b *testing.B, c *Client, size, outstanding int) time.Duration {
	b.Helper()
	const region = 32 << 20
	bufs := make([][]byte, outstanding)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	handles := make([]*Pending, outstanding)
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for n := 0; n < b.N; n++ {
		s := n % outstanding
		if handles[s] != nil {
			if err := handles[s].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		off := int64(n*size) % (region - int64(size))
		h, err := c.ReadAsync(1, off, bufs[s])
		if err != nil {
			b.Fatal(err)
		}
		handles[s] = h
	}
	for _, h := range handles {
		if h != nil {
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	elapsed := time.Since(t0)
	b.StopTimer()
	return elapsed
}

// BenchmarkNetv3Throughput sweeps request size × outstanding I/Os over
// cached reads, the TCP counterpart of the paper's cached throughput
// microbenchmark (Figure 6).
func BenchmarkNetv3Throughput(b *testing.B) {
	for _, size := range []int{4096, 8192, 65536} {
		for _, outstanding := range []int{1, 16} {
			b.Run(fmt.Sprintf("size=%d/outstanding=%d", size, outstanding), func(b *testing.B) {
				c := benchPair(b)
				elapsed := pipelineReads(b, c, size, outstanding)
				ops := float64(b.N) / elapsed.Seconds()
				b.ReportMetric(ops, "ops/s")
				b.ReportMetric(ops*float64(size)/1e6, "MB/s")
			})
		}
	}
}

// BenchmarkNetv3Latency measures single-outstanding (synchronous)
// round-trip time, the Figure 3 analogue. size=8192 is the QD1 guard of
// ROADMAP item 12.
func BenchmarkNetv3Latency(b *testing.B) {
	for _, size := range []int{512, 8192} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			c := benchPair(b)
			buf := make([]byte, size)
			b.ResetTimer()
			t0 := time.Now()
			for n := 0; n < b.N; n++ {
				if err := c.Read(1, int64(n*size)%(16<<20), buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(time.Since(t0).Seconds()/float64(b.N)*1e6, "µs/op")
		})
	}
}

// diskBenchRegion is the working set of the sleeping-store benchmarks:
// 32 MB, four times the 1024-block (8 MB) cache, so demand reads keep
// missing.
const diskBenchRegion = 32 << 20

// diskBenchDelay is the injected per-I/O store latency, in the ballpark
// of a short-stroked disk or networked flash access.
const diskBenchDelay = 150 * time.Microsecond

func benchDiskPair(b *testing.B) *Client {
	b.Helper()
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 1024
	fs, err := NewFileStore(filepath.Join(b.TempDir(), "vol.img"), diskBenchRegion)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fs.Close() }) // after the server's own cleanup
	_, addr := startTunedServer(b, cfg, tuning{destageInterval: 2 * time.Millisecond},
		&slowStore{BlockStore: fs, delay: diskBenchDelay})
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// pipelineMixed keeps `outstanding` mixed requests in flight: odd ops
// are strided reads across the front half of the region (cycling through
// twice the cache capacity, so most of them miss), even ops are
// sequential writes into the back half (the coalescing-friendly pattern
// of a database log). A Flush at the end puts the full destage bill
// inside the measured window.
func pipelineMixed(b *testing.B, c *Client, size, outstanding int) time.Duration {
	b.Helper()
	const half = diskBenchRegion / 2
	blocks := half / size
	bufs := make([][]byte, outstanding)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	data := make([]byte, size)
	handles := make([]*Pending, outstanding)
	b.ResetTimer()
	t0 := time.Now()
	for n := 0; n < b.N; n++ {
		s := n % outstanding
		if handles[s] != nil {
			if err := handles[s].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		var h *Pending
		var err error
		if n%2 == 0 {
			off := int64(half) + int64(n/2%blocks)*int64(size)
			h, err = c.WriteAsync(1, off, data)
		} else {
			off := int64((n * 13) % blocks * size)
			h, err = c.ReadAsync(1, off, bufs[s])
		}
		if err != nil {
			b.Fatal(err)
		}
		handles[s] = h
	}
	for _, h := range handles {
		if h != nil {
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := c.Flush(1); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(t0)
	b.StopTimer()
	return elapsed
}

// BenchmarkNetv3SlowStore drives the whole cached disk path — misses,
// write-behind, in-order destage passes, read-ahead — over a file-backed
// store that sleeps diskBenchDelay per call, so overlap of store waits
// shows: mixed is 8 KB × 16 reads and writes, whose strided reads arm the
// read-ahead fan-out, seq a blocking sequential scan that only read-ahead
// can speed up.
func BenchmarkNetv3SlowStore(b *testing.B) {
	b.Run("mixed", func(b *testing.B) {
		c := benchDiskPair(b)
		elapsed := pipelineMixed(b, c, 8192, 16)
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	})
	b.Run("seq", func(b *testing.B) {
		c := benchDiskPair(b)
		buf := make([]byte, 8192)
		b.ResetTimer()
		t0 := time.Now()
		for n := 0; n < b.N; n++ {
			off := int64(n%(diskBenchRegion/8192)) * 8192
			if err := c.Read(1, off, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(t0).Seconds(), "ops/s")
	})
}

// BenchmarkFileStoreOverwrite times random 8 KB FileStore.WriteAt calls
// into a 64 MB cached file first filled in 1 MB calls: fill=store through
// FileStore.WriteAt (the judged benchmark's fill, cut into filePiece
// pwrites), fill=os-1MB by raw 1 MB pwrites that bypass the pieces. The gap
// between the two is the per-write kernel cost the pieces avoid (DESIGN.md
// "BlockStore"); a kernel on which it reads zero no longer needs them.
func BenchmarkFileStoreOverwrite(b *testing.B) {
	const size = 64 << 20
	fills := []struct {
		name  string
		write func(fs *FileStore, p []byte, off int64) error
	}{
		{"store", (*FileStore).WriteAt},
		{"os-1MB", func(fs *FileStore, p []byte, off int64) error {
			_, err := fs.f.WriteAt(p, off)
			return err
		}},
	}
	for _, fill := range fills {
		b.Run("fill="+fill.name, func(b *testing.B) {
			fs, err := NewFileStore(filepath.Join(b.TempDir(), "vol.img"), size)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			chunk := make([]byte, 1<<20)
			for off := int64(0); off < size; off += int64(len(chunk)) {
				if err := fill.write(fs, chunk, off); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, 8192)
			rng := rand.New(rand.NewPCG(1, 2))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := fs.WriteAt(buf, rng.Int64N(size/8192)*8192); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
