package netv3

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The mux benchmarks measure the session-multiplexing claims directly:
// a flat p99 as the logical-session count grows 100× on one connection,
// throughput parity (or better) against a connection per client, and a
// foreground p99 that holds while the background lane is saturated.
// Rows land in BENCH_netv3.json with P99Micros filled in.

// benchMuxServer starts a scheduler-enabled server over a RAM-backed
// store. Deliberately no injected device delay: time.Sleep granularity
// on a small host (~1 ms observed on one CPU) dwarfs any realistic
// per-op delay and turns the numbers into runtime-timer noise. With a
// RAM store the benchmarks measure the software path — frame parse,
// scheduler queueing, credit accounting, response batching — which is
// what the multiplexing claims are about.
func benchMuxServer(b *testing.B, cfg ServerConfig, tune tuning) string {
	b.Helper()
	_, addr := startTunedServer(b, cfg, tune, NewMemStore(64<<20))
	return addr
}

// openStreams opens n streams concurrently (serial opens at 10k streams
// would spend longer in setup than in the measured region).
func openStreams(b *testing.B, c *Client, n int, cfg StreamConfig) []*Stream {
	b.Helper()
	streams := make([]*Stream, n)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	const openers = 16
	var next atomic.Int64
	for g := 0; g < openers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				st, err := c.OpenStream(cfg)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				streams[i] = st
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		b.Fatal(err)
	}
	return streams
}

// muxLoad drives total synchronous 4 KB reads through the streams from
// `workers` goroutines (the fixed offered load), spreading ops across
// streams round-robin, and returns the sorted per-op latencies plus the
// wall time.
func muxLoad(b *testing.B, streams []*Stream, workers, total int) ([]time.Duration, time.Duration) {
	b.Helper()
	var next atomic.Int64
	lats := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				st := streams[i%len(streams)]
				off := int64(i*4096) % (32 << 20)
				s := time.Now()
				if err := st.Read(1, off, buf); err != nil {
					b.Error(err)
					return
				}
				lats[w] = append(lats[w], time.Since(s))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, wall
}

func p99us(sorted []time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[len(sorted)*99/100].Nanoseconds()) / 1e3
}

func meanus(sorted []time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return float64(sum.Nanoseconds()) / float64(len(sorted)) / 1e3
}

// BenchmarkNetv3MuxSessions holds the offered load fixed (64 concurrent
// synchronous readers) and grows the logical-session count 100×. The
// claim under test: p99 at 10000 streams on one connection stays within
// 2× of p99 at 100 streams — per-request cost must not scale with the
// stream population.
func BenchmarkNetv3MuxSessions(b *testing.B) {
	for _, nStreams := range []int{100, 10000} {
		b.Run(fmt.Sprintf("streams=%d", nStreams), func(b *testing.B) {
			cfg := DefaultServerConfig()
			cfg.SchedWorkers = 8
			cfg.Credits = 256
			addr := benchMuxServer(b, cfg, tuning{})
			ccfg := DefaultClientConfig()
			ccfg.KeepaliveInterval = 0
			c, err := Dial(addr, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			streams := openStreams(b, c, nStreams, StreamConfig{Credits: 1})
			b.ResetTimer()
			lats, wall := muxLoad(b, streams, 64, b.N)
			b.StopTimer()
			if len(lats) == 0 {
				b.Fatal("no ops completed")
			}
			ops := float64(len(lats)) / wall.Seconds()
			p99 := p99us(lats)
			b.ReportMetric(ops, "ops/s")
			b.ReportMetric(p99, "p99-µs")
			record(benchRecord{
				Name:      fmt.Sprintf("Netv3MuxSessions/streams=%d/4096x64", nStreams),
				OpsPerSec: ops, MBPerSec: ops * 4096 / 1e6,
				MeanMicros: meanus(lats), P99Micros: p99,
			})
		})
	}
}

// BenchmarkNetv3MuxVsConns pits 512 logical clients multiplexed on one
// connection against 512 real connections at equal concurrency (each
// logical client: one outstanding synchronous read). The multiplexed
// path must not cost throughput against the connection-per-client
// baseline it replaces.
func BenchmarkNetv3MuxVsConns(b *testing.B) {
	const clients = 512
	serverCfg := func() ServerConfig {
		cfg := DefaultServerConfig()
		cfg.SchedWorkers = 8
		cfg.Credits = clients // the mux conn's window must not cap concurrency
		return cfg
	}
	run := func(b *testing.B, io []IO) {
		b.Helper()
		var next atomic.Int64
		var done atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		t0 := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, 4096)
				for {
					i := int(next.Add(1)) - 1
					if i >= b.N {
						return
					}
					h, err := io[w].ReadAsync(1, int64(i*4096)%(32<<20), buf)
					if err != nil {
						b.Error(err)
						return
					}
					if err := h.Wait(); err != nil {
						b.Error(err)
						return
					}
					done.Add(1)
				}
			}(w)
		}
		wg.Wait()
		wall := time.Since(t0)
		b.StopTimer()
		ops := float64(done.Load()) / wall.Seconds()
		b.ReportMetric(ops, "ops/s")
		name := "Netv3MuxVsConns/mux-512-streams-1-conn/4096"
		if len(io) > 0 {
			if _, isClient := io[0].(*Client); isClient {
				name = "Netv3MuxVsConns/conn-per-client-512/4096"
			}
		}
		record(benchRecord{Name: name, OpsPerSec: ops, MBPerSec: ops * 4096 / 1e6})
	}
	b.Run("mux-512-streams-1-conn", func(b *testing.B) {
		addr := benchMuxServer(b, serverCfg(), tuning{})
		ccfg := DefaultClientConfig()
		ccfg.KeepaliveInterval = 0
		ccfg.WantCredits = clients
		c, err := Dial(addr, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		streams := openStreams(b, c, clients, StreamConfig{Credits: 1})
		io := make([]IO, clients)
		for i, st := range streams {
			io[i] = st
		}
		run(b, io)
	})
	b.Run("conn-per-client-512", func(b *testing.B) {
		addr := benchMuxServer(b, serverCfg(), tuning{})
		io := make([]IO, clients)
		for i := range io {
			ccfg := DefaultClientConfig()
			ccfg.KeepaliveInterval = 0
			c, err := Dial(addr, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			io[i] = c
		}
		run(b, io)
	})
}

// BenchmarkNetv3MuxLane is the QoS-lane ablation: eight foreground
// sessions' read p99 measured alone, then with the background lane
// saturated by resync-style writes and destage churn on the same
// connection. The background traffic matches what vvault actually
// generates — stripe-sized (8 KB) replay writes plus the destage work
// they trigger — because that is the load the lane split exists to
// isolate. The lane split plus weighted round-robin is accepted when
// the loaded p99 stays within 1.5× of the unloaded one.
func BenchmarkNetv3MuxLane(b *testing.B) {
	for _, loaded := range []bool{false, true} {
		name := "fg-alone"
		if loaded {
			name = "fg-under-bg"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultServerConfig()
			cfg.SchedWorkers = 4
			cfg.Credits = 256
			cfg.CacheBlocks = 64 // small: fg misses, bg writes cross the high-watermark
			addr := benchMuxServer(b, cfg, tuning{dirtyHighWater: 16, destageInterval: time.Millisecond})
			ccfg := DefaultClientConfig()
			ccfg.KeepaliveInterval = 0
			c, err := Dial(addr, ccfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			const fgSessions = 8
			fgStreams := make([]*Stream, fgSessions)
			for i := range fgStreams {
				st, err := c.OpenStream(StreamConfig{Credits: 1})
				if err != nil {
					b.Fatal(err)
				}
				fgStreams[i] = st
			}
			stop := make(chan struct{})
			var bgWG sync.WaitGroup
			if loaded {
				// The bg carve-out is deliberately small: each credit is a
				// payload the flooders may queue on the shared wire ahead
				// of a foreground frame, so the carve-out directly bounds
				// head-of-line blocking — the reason background streams
				// get small credit allocations (vvault's resync stream
				// does the same).
				bg, err := c.OpenStream(StreamConfig{Credits: 4, Background: true})
				if err != nil {
					b.Fatal(err)
				}
				// Two flooders are plenty: the carve-out (4 credits) bounds
				// offered bg load, so extra flooder goroutines only add
				// client-side scheduler churn without adding wire load.
				for g := 0; g < 2; g++ {
					bgWG.Add(1)
					go func(g int) {
						defer bgWG.Done()
						payload := make([]byte, 8<<10) // one vvault stripe
						for off := int64(g) * (3 << 20); ; off += int64(len(payload)) {
							select {
							case <-stop:
								return
							default:
							}
							if off >= int64(g+1)*(3<<20) {
								off = int64(g) * (3 << 20)
							}
							_ = bg.Write(1, off, payload)
						}
					}(g)
				}
				time.Sleep(20 * time.Millisecond) // let the flood establish
			}
			var mu sync.Mutex
			var lats []time.Duration
			var next atomic.Int64
			var fgWG sync.WaitGroup
			b.ResetTimer()
			for _, st := range fgStreams {
				fgWG.Add(1)
				go func(st *Stream) {
					defer fgWG.Done()
					buf := make([]byte, 8192)
					var local []time.Duration
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							break
						}
						off := int64(16<<20) + (i%1024)*8192
						s := time.Now()
						if err := st.Read(1, off, buf); err != nil {
							b.Error(err)
							break
						}
						local = append(local, time.Since(s))
					}
					mu.Lock()
					lats = append(lats, local...)
					mu.Unlock()
				}(st)
			}
			fgWG.Wait()
			b.StopTimer()
			close(stop)
			bgWG.Wait()
			if len(lats) == 0 {
				b.Fatal("no foreground ops completed")
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p99 := p99us(lats)
			b.ReportMetric(p99, "p99-µs")
			record(benchRecord{
				Name:       "Netv3MuxLane/" + name + "/8192",
				MeanMicros: meanus(lats), P99Micros: p99,
			})
		})
	}
}
