package netv3

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/benchjson"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// Benchmark results are collected here and, when the BENCH_JSON
// environment variable names a file, written out by TestMain so the
// repo's perf trajectory is machine-readable across PRs (`make bench`).
// The writer merges by name — same-name rows are replaced keeping the
// newest, others survive — so full sweeps and targeted runs (`make
// bench-mux`, `make bench-tpcc`) compose in any order.
type benchRecord = benchjson.Record

var (
	benchMu      sync.Mutex
	benchRecords []benchRecord
)

func record(r benchRecord) {
	benchMu.Lock()
	benchRecords = append(benchRecords, r)
	benchMu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_JSON"); path != "" {
		_ = benchjson.Write(path, benchRecords)
	}
	os.Exit(code)
}

// benchPair starts a server+client for one benchmark run.
func benchPair(b *testing.B, cacheBlocks int) (*Server, *Client) {
	b.Helper()
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = cacheBlocks
	srv, addr := startServer(b, cfg, 64<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return srv, c
}

// pipelineReads keeps `outstanding` reads in flight for b.N total ops and
// returns wall-clock elapsed plus allocation deltas per op.
func pipelineReads(b *testing.B, c *Client, size, outstanding int) (elapsed time.Duration, bytesPerOp, allocsPerOp float64) {
	b.Helper()
	const region = 32 << 20
	bufs := make([][]byte, outstanding)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	handles := make([]*Pending, outstanding)
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
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
	elapsed = time.Since(t0)
	b.StopTimer()
	runtime.ReadMemStats(&ms2)
	bytesPerOp = float64(ms2.TotalAlloc-ms1.TotalAlloc) / float64(b.N)
	allocsPerOp = float64(ms2.Mallocs-ms1.Mallocs) / float64(b.N)
	return elapsed, bytesPerOp, allocsPerOp
}

// BenchmarkNetv3Throughput sweeps request size × outstanding I/Os on the
// fully optimized path, the TCP counterpart of the paper's cached
// throughput microbenchmark (Figure 6).
func BenchmarkNetv3Throughput(b *testing.B) {
	for _, size := range []int{4096, 8192, 65536} {
		for _, outstanding := range []int{1, 16} {
			name := fmt.Sprintf("size=%d/outstanding=%d", size, outstanding)
			b.Run(name, func(b *testing.B) {
				_, c := benchPair(b, 4096)
				elapsed, bpo, apo := pipelineReads(b, c, size, outstanding)
				ops := float64(b.N) / elapsed.Seconds()
				mbs := ops * float64(size) / 1e6
				b.ReportMetric(ops, "ops/s")
				b.ReportMetric(mbs, "MB/s")
				b.ReportMetric(bpo, "alloc-B/op")
				record(benchRecord{
					Name: "Netv3Throughput/" + name, OpsPerSec: ops, MBPerSec: mbs,
					BytesPerOp: bpo, AllocsPerOp: apo,
				})
			})
		}
	}
}

// BenchmarkNetv3Latency measures single-outstanding (synchronous)
// round-trip time, the Figure 3 analogue.
func BenchmarkNetv3Latency(b *testing.B) {
	for _, size := range []int{512, 8192} {
		name := fmt.Sprintf("size=%d", size)
		b.Run(name, func(b *testing.B) {
			_, c := benchPair(b, 4096)
			buf := make([]byte, size)
			b.ResetTimer()
			t0 := time.Now()
			for n := 0; n < b.N; n++ {
				if err := c.Read(1, int64(n*size)%(16<<20), buf); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(t0)
			mean := elapsed.Seconds() / float64(b.N) * 1e6
			b.ReportMetric(mean, "µs/op")
			record(benchRecord{Name: "Netv3Latency/" + name, MeanMicros: mean})
		})
	}
}

// BenchmarkNetv3Ablation re-records the rows of the Netv3Ablation ledger
// family that the one remaining pipeline can still produce. The family's
// off-arms (no-pool, no-batch, no-shard, all-off, disk-sync, disk-workers,
// disk-writebehind, disk-seq-noprefetch) were designs nobody would ship;
// their code is gone and their last recorded rows stay in
// BENCH_netv3.json as the final ablation. What is left is the on-arm of
// each comparison: all-on (8 KB × 16 cached reads), disk-all (the mixed
// workload over a file-backed store with an artificial per-I/O latency)
// and disk-seq-prefetch (a sequential scan over the same store).
func BenchmarkNetv3Ablation(b *testing.B) {
	b.Run("all-on", func(b *testing.B) {
		_, c := benchPair(b, 4096)
		elapsed, bpo, apo := pipelineReads(b, c, 8192, 16)
		ops := float64(b.N) / elapsed.Seconds()
		b.ReportMetric(ops, "ops/s")
		b.ReportMetric(bpo, "alloc-B/op")
		b.ReportMetric(apo, "allocs/op")
		record(benchRecord{
			Name: "Netv3Ablation/all-on/8192x16", OpsPerSec: ops,
			MBPerSec: ops * 8192 / 1e6, BytesPerOp: bpo, AllocsPerOp: apo,
		})
	})
	b.Run("disk-all", func(b *testing.B) {
		c := benchDiskPair(b)
		elapsed := pipelineMixed(b, c, 8192, 16)
		ops := float64(b.N) / elapsed.Seconds()
		b.ReportMetric(ops, "ops/s")
		record(benchRecord{
			Name: "Netv3Ablation/disk-all/8192x16mixed", OpsPerSec: ops,
			MBPerSec: ops * 8192 / 1e6,
		})
	})
	b.Run("disk-seq-prefetch", func(b *testing.B) {
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
		elapsed := time.Since(t0)
		ops := float64(b.N) / elapsed.Seconds()
		b.ReportMetric(ops, "ops/s")
		record(benchRecord{
			Name: "Netv3Ablation/disk-seq-prefetch/8192seq", OpsPerSec: ops,
			MBPerSec: ops * 8192 / 1e6,
		})
	})
}

// BenchmarkNetv3Obs is the observability ablation: the standard
// 8 KB × 16 pipelined read workload with the full metrics stack enabled
// (client stage trace + server histograms and gauges) against the
// nil-registry fast path. The acceptance bar for the obs layer is that
// "on" stays within 3% ops/s of "off".
func BenchmarkNetv3Obs(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultServerConfig()
			cfg.CacheBlocks = 4096
			ccfg := DefaultClientConfig()
			if on {
				cfg.Metrics = obs.New()
				ccfg.Metrics = obs.New()
			}
			_, addr := startServer(b, cfg, 64<<20)
			c, err := Dial(addr, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			elapsed, bpo, _ := pipelineReads(b, c, 8192, 16)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(bpo, "alloc-B/op")
			record(benchRecord{
				Name: "Netv3Obs/" + name + "/8192x16", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6, BytesPerOp: bpo,
			})
		})
	}
}

// BenchmarkNetv3TraceObs is the cross-tier tracing ablation: the
// standard 8 KB × 16 pipelined read workload with the full metrics stack
// on BOTH arms, toggling only what this PR added — the 1-in-4 trace
// sampling with server span fill plus an always-on flight recorder ring
// on the server — against NoTrace on both sides with no ring. The
// acceptance bar is that "on" stays within 3% ops/s of "off": the
// recorder is meant to run in production, not only during incidents.
func BenchmarkNetv3TraceObs(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultServerConfig()
			cfg.CacheBlocks = 4096
			cfg.Metrics = obs.New()
			ccfg := DefaultClientConfig()
			ccfg.Metrics = obs.New()
			if on {
				cfg.Flight = obs.NewFlight(0, 0)
			} else {
				cfg.NoTrace = true
				ccfg.NoTrace = true
			}
			_, addr := startServer(b, cfg, 64<<20)
			c, err := Dial(addr, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			elapsed, bpo, _ := pipelineReads(b, c, 8192, 16)
			ops := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(bpo, "alloc-B/op")
			record(benchRecord{
				Name: "Netv3TraceObs/" + name + "/8192x16", OpsPerSec: ops,
				MBPerSec: ops * 8192 / 1e6, BytesPerOp: bpo,
			})
		})
	}
}

// slowStore wraps a BlockStore with a fixed per-I/O latency, standing in
// for a disk so the pipelined-path benchmarks measure overlap of real
// wait time rather than memcpy speed.
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

// diskBenchRegion is the working set of the disk-path benchmarks: 32 MB,
// four times the 1024-block (8 MB) cache, so demand reads keep missing.
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
// of a database log). A Flush at the end makes every variant pay its
// full destage bill inside the measured window.
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

// BenchmarkNetv3ServerReadPath isolates the server-side inline read path
// — frame decode, dispatch, cache hit, response framing — without the
// client or the socket, for a precise allocation account: reused decode
// struct, pooled body, reused response, scratch frame. (The ledger's
// Netv3ServerReadPath/all-off row is the seed's path — fresh Unmarshal,
// make([]byte) body, fresh response, Marshal frame — recorded before it
// was deleted.)
func BenchmarkNetv3ServerReadPath(b *testing.B) {
	b.Run("all-on", func(b *testing.B) {
		cfg := DefaultServerConfig()
		cfg.CacheBlocks = 4096
		s := NewServer(cfg)
		s.AddVolume(1, NewMemStore(64<<20))
		b.Cleanup(func() { closeServer(b, s) })
		w := newFrameWriter(io.Discard, &s.wire, func() {})
		b.Cleanup(w.stop)
		ss := &session{s: s, w: w, streams: make(map[uint32]*srvStream)}
		req := &wire.Read{Header: wire.Header{Seq: 1}, ReqID: 1, Volume: 1, Length: 8192}
		frame := wire.Marshal(req)
		var m wire.Read
		// Warm the 4096 blocks the loop cycles over, so every measured
		// read is the inline hit and none becomes a scheduler task.
		v := s.lookup(1)
		warm := make([]byte, 8192)
		for blk := int64(0); blk < 4096; blk++ {
			if err := v.cachedRead(warm, blk*8192); err != nil {
				b.Fatal(err)
			}
		}
		var ms1, ms2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := wire.UnmarshalInto(frame, &m); err != nil {
				b.Fatal(err)
			}
			m.Offset = uint64(n%4096) * 8192
			ss.read(&m, 0)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms2)
		bpo := float64(ms2.TotalAlloc-ms1.TotalAlloc) / float64(b.N)
		apo := float64(ms2.Mallocs-ms1.Mallocs) / float64(b.N)
		b.ReportMetric(bpo, "alloc-B/op")
		b.ReportMetric(apo, "allocs/op")
		record(benchRecord{
			Name: "Netv3ServerReadPath/all-on", BytesPerOp: bpo, AllocsPerOp: apo,
		})
	})
}

// BenchmarkNetv3WriteThroughput covers the submission direction (client
// batching + server staging-buffer pooling).
func BenchmarkNetv3WriteThroughput(b *testing.B) {
	const size, outstanding = 8192, 16
	_, c := benchPair(b, 0)
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
		h, err := c.WriteAsync(1, int64(n*size)%(32<<20), data)
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
	ops := float64(b.N) / elapsed.Seconds()
	b.ReportMetric(ops, "ops/s")
	b.ReportMetric(ops*size/1e6, "MB/s")
	record(benchRecord{Name: "Netv3WriteThroughput/8192x16", OpsPerSec: ops, MBPerSec: ops * size / 1e6})
}
