// Package v3_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper, plus ablation benches for the design
// choices called out in DESIGN.md. Each benchmark runs the corresponding
// experiment (quick settings) and reports the headline values as custom
// metrics, so `go test -bench=.` regenerates every result in one sweep.
package v3_test

import (
	"testing"
	"time"

	"github.com/v3storage/v3/internal/bench"
	"github.com/v3storage/v3/internal/core"
	"github.com/v3storage/v3/internal/diskmodel"
	"github.com/v3storage/v3/internal/mqcache"
	"github.com/v3storage/v3/internal/sim"
	"github.com/v3storage/v3/internal/volume"
)

var quick = bench.Options{Quick: true}

func benchDur() bench.OLTPDurations {
	return bench.OLTPDurations{Warmup: time.Second, Measure: 1500 * time.Millisecond}
}

// ---- Tables 1 and 2 ----

func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := bench.Table1Render().String(); len(got) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := bench.Table2Render().String(); len(got) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---- Figure 3: latency of raw VI and DSA ----

func BenchmarkFig3Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vi := bench.RawVILatency(8192, 40)
		k := bench.DSALatency(core.KDSA, 8192, 40)
		w := bench.DSALatency(core.WDSA, 8192, 40)
		c := bench.DSALatency(core.CDSA, 8192, 40)
		b.ReportMetric(vi.Seconds()*1e6, "vi-8k-µs")
		b.ReportMetric(k.Seconds()*1e6, "kdsa-8k-µs")
		b.ReportMetric(w.Seconds()*1e6, "wdsa-8k-µs")
		b.ReportMetric(c.Seconds()*1e6, "cdsa-8k-µs")
	}
}

// ---- Figure 4: response-time breakdown ----

func BenchmarkFig4Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := bench.ResponseBreakdown(core.CDSA, 8192, 40)
		b.ReportMetric(bd.CPUOverhead.Seconds()*1e6, "cpu-µs")
		b.ReportMetric(bd.NodeToNode.Seconds()*1e6, "net-µs")
		b.ReportMetric(bd.Server.Seconds()*1e6, "server-µs")
	}
}

// ---- Figure 5: response vs outstanding ----

func BenchmarkFig5Outstanding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r1 := bench.CachedLoad(core.KDSA, 8192, 1, 30*time.Millisecond)
		r16 := bench.CachedLoad(core.KDSA, 8192, 16, 30*time.Millisecond)
		b.ReportMetric(r1.MeanResponse.Seconds()*1e6, "resp-1-µs")
		b.ReportMetric(r16.MeanResponse.Seconds()*1e6, "resp-16-µs")
	}
}

// ---- Figure 6: cached throughput ----

func BenchmarkFig6Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one128k := bench.CachedLoad(core.KDSA, 128*1024, 1, 30*time.Millisecond)
		four8k := bench.CachedLoad(core.KDSA, 8192, 4, 30*time.Millisecond)
		b.ReportMetric(one128k.ThroughputMBs, "1x128K-MB/s")
		b.ReportMetric(four8k.ThroughputMBs, "4x8K-MB/s")
	}
}

// ---- Figures 7/8: V3 vs local ----

func BenchmarkFig7VsLocal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.VsLocal(8192, false, 1, 25)
		b.ReportMetric(r.V3Response.Seconds()*1e3, "v3-read-ms")
		b.ReportMetric(r.LocalResponse.Seconds()*1e3, "local-read-ms")
	}
}

func BenchmarkFig8VsLocalTput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.VsLocal(32*1024, false, 2, 25)
		b.ReportMetric(r.V3MBs, "v3-MB/s")
		b.ReportMetric(r.LocalMBs, "local-MB/s")
	}
}

// ---- Figures 9-14: TPC-C ----

func BenchmarkFig9AblationLarge(b *testing.B) {
	setup := bench.LargeSetup()
	for i := 0; i < b.N; i++ {
		base := bench.RunTPCCDSA(setup, core.KDSA, core.NoOpts(), benchDur())
		full := bench.RunTPCCDSA(setup, core.KDSA, core.AllOpts(), benchDur())
		b.ReportMetric(full.TpmC/base.TpmC*100, "kdsa-opt-vs-unopt-%")
	}
}

func BenchmarkFig10TpmCLarge(b *testing.B) {
	setup := bench.LargeSetup()
	for i := 0; i < b.N; i++ {
		local := bench.RunTPCCLocal(setup, 0, benchDur())
		cdsa := bench.RunTPCCDSA(setup, core.CDSA, core.AllOpts(), benchDur())
		b.ReportMetric(cdsa.TpmC/local.TpmC*100, "cdsa-vs-local-%")
	}
}

func BenchmarkFig11CPUBreakdownLarge(b *testing.B) {
	setup := bench.LargeSetup()
	for i := 0; i < b.N; i++ {
		r := bench.RunTPCCDSA(setup, core.CDSA, core.AllOpts(), benchDur())
		b.ReportMetric(r.Breakdown["SQL"]*100, "cdsa-sql-%")
		b.ReportMetric(r.Breakdown["Lock"]*100, "cdsa-lock-%")
	}
}

func BenchmarkFig12AblationMid(b *testing.B) {
	setup := bench.MidSizeSetup()
	for i := 0; i < b.N; i++ {
		base := bench.RunTPCCDSA(setup, core.CDSA, core.NoOpts(), benchDur())
		full := bench.RunTPCCDSA(setup, core.CDSA, core.AllOpts(), benchDur())
		b.ReportMetric(full.TpmC/base.TpmC*100, "cdsa-opt-vs-unopt-%")
	}
}

func BenchmarkFig13DiskSweep(b *testing.B) {
	setup := bench.MidSizeSetup()
	for i := 0; i < b.N; i++ {
		few := bench.RunTPCCLocal(setup, 30, benchDur())
		ref := bench.RunTPCCLocal(setup, 176, benchDur())
		kdsa := bench.RunTPCCDSA(setup, core.KDSA, core.AllOpts(), benchDur())
		b.ReportMetric(few.TpmC/ref.TpmC*100, "local30-vs-176-%")
		b.ReportMetric(kdsa.TpmC/ref.TpmC*100, "kdsa60-vs-local176-%")
	}
}

func BenchmarkFig14CPUBreakdownMid(b *testing.B) {
	setup := bench.MidSizeSetup()
	for i := 0; i < b.N; i++ {
		r := bench.RunTPCCDSA(setup, core.CDSA, core.AllOpts(), benchDur())
		b.ReportMetric(r.Breakdown["SQL"]*100, "cdsa-sql-%")
		b.ReportMetric(r.Breakdown["Idle"]*100, "cdsa-idle-%")
	}
}

// ---- Ablations (DESIGN.md section 5) ----

// BenchmarkAblationDereg compares batched vs immediate deregistration on
// the micro path: NIC deregistration operations per 1000 I/Os.
func BenchmarkAblationDereg(b *testing.B) {
	run := func(batched bool) int64 {
		cfg := bench.MicroConfig(core.KDSA)
		cfg.DSA.Opts.BatchedDereg = batched
		sys := bench.Build(cfg)
		sys.E.Go("load", func(p *sim.Proc) {
			for i := 0; i < 1000; i++ {
				sys.Client.Read(p, int64(i%64)*8192, 8192)
			}
			sys.Client.Stop()
		})
		sys.E.RunFor(10 * time.Second)
		return sys.Client.DeregOps()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(true)), "batched-deregs")
		b.ReportMetric(float64(run(false)), "immediate-deregs")
	}
}

// BenchmarkAblationInterrupts compares interrupt counts per 1000 I/Os for
// cDSA polling vs interrupt completion.
func BenchmarkAblationInterrupts(b *testing.B) {
	run := func(batched bool) int64 {
		cfg := bench.MicroConfig(core.CDSA)
		cfg.DSA.Opts.BatchedInterrupts = batched
		cfg.DSA.PollInterval = 50 * time.Millisecond
		sys := bench.Build(cfg)
		sys.E.Go("load", func(p *sim.Proc) {
			for i := 0; i < 1000; i++ {
				sys.Client.Read(p, int64(i%64)*8192, 8192)
			}
			sys.Client.Stop()
		})
		sys.E.RunFor(20 * time.Second)
		return sys.Client.Interrupts()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(run(true)), "poll-interrupts")
		b.ReportMetric(float64(run(false)), "intr-interrupts")
	}
}

// BenchmarkAblationLocks compares mean latency with reduced vs full lock
// pair counts (Section 3.3).
func BenchmarkAblationLocks(b *testing.B) {
	run := func(reduced bool) time.Duration {
		cfg := bench.MicroConfig(core.KDSA)
		cfg.DSA.Opts.ReducedLocks = reduced
		sys := bench.Build(cfg)
		sys.E.Go("load", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				sys.Client.Read(p, int64(i%64)*8192, 8192)
			}
			sys.Client.Stop()
		})
		sys.E.RunFor(10 * time.Second)
		return sys.Client.MeanLatency()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true).Seconds()*1e6, "reduced-µs")
		b.ReportMetric(run(false).Seconds()*1e6, "full-µs")
	}
}

// BenchmarkAblationCache compares MQ vs LRU hit ratios on a second-level
// (post-buffer-pool) reference stream.
func BenchmarkAblationCache(b *testing.B) {
	run := func(mk func() mqcache.Cache) float64 {
		c := mk()
		rng := sim.NewRand(99)
		hits, total := 0, 0
		for i := 0; i < 300000; i++ {
			var k uint64
			if rng.Float64() < 0.45 {
				k = rng.Uint64() % 400 // warm, long temporal distance
			} else {
				k = 400 + rng.Uint64()%40000 // cold stream
			}
			total++
			if c.Ref(k) {
				hits++
			} else {
				c.Insert(k)
			}
		}
		return float64(hits) / float64(total)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(func() mqcache.Cache { return mqcache.NewMQ(1024, 0, 4096) })*100, "mq-hit-%")
		b.ReportMetric(run(func() mqcache.Cache { return mqcache.NewLRU(1024) })*100, "lru-hit-%")
	}
}

// BenchmarkAblationVolume compares striping vs concatenation under a
// concurrent random 8K load: striping spreads the load over all member
// disks, concatenation hotspots the first member.
func BenchmarkAblationVolume(b *testing.B) {
	run := func(stripe bool) time.Duration {
		e := sim.NewEngine()
		disks := diskmodel.NewArray(e, 8, diskmodel.SCSI10K(), sim.NewRand(3))
		var lay volume.Layout
		var err error
		memberSize := int64(1 << 30)
		if stripe {
			lay, err = volume.NewStripe(8, 64*1024, memberSize)
		} else {
			lay, err = volume.NewConcat(memberSize, memberSize, memberSize, memberSize,
				memberSize, memberSize, memberSize, memberSize)
		}
		if err != nil {
			b.Fatal(err)
		}
		var finished sim.Time
		done := 0
		const n = 64
		for s := 0; s < n; s++ {
			stream := s
			e.Go("load", func(p *sim.Proc) {
				rng := sim.NewRand(uint64(stream))
				for i := 0; i < 8; i++ {
					// Hot region: first 1% of the volume (as in a DB with a
					// hot table at the front).
					off := rng.Int63() % (lay.Size() / 100 / 8192) * 8192
					ext, err := lay.MapRead(off, 8192)
					if err != nil {
						b.Error(err)
						return
					}
					for _, x := range ext {
						ev := sim.NewEvent()
						disks.Disks[x.Disk].Submit(&diskmodel.Request{
							Offset: x.Offset, Length: x.Length, Done: ev,
						})
						ev.Wait(p)
					}
				}
				done++
				if done == n {
					finished = p.Now()
				}
			})
		}
		e.RunFor(time.Minute)
		return time.Duration(finished)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true).Seconds()*1e3, "stripe-makespan-ms")
		b.ReportMetric(run(false).Seconds()*1e3, "concat-makespan-ms")
	}
}

var _ = quick
