package netv3

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// driveTracedLoad pushes n async reads of size bytes, the i-th at off(i),
// through c with the given pipeline window and returns the traced subset's
// count and summed caller-measured end-to-end time.
func driveTracedLoad(t *testing.T, c *Client, n, size, window int, off func(i int) int64) (count int, e2e time.Duration) {
	t.Helper()
	bufs := make([][]byte, window)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	handles := make([]*Pending, window)
	starts := make([]time.Time, window)
	reap := func(s int) {
		if handles[s] == nil {
			return
		}
		if err := handles[s].Wait(); err != nil {
			t.Fatal(err)
		}
		if handles[s].Traced() {
			e2e += time.Since(starts[s])
			count++
		}
		handles[s] = nil
	}
	for i := 0; i < n; i++ {
		s := i % window
		reap(s)
		starts[s] = time.Now()
		h, err := c.ReadAsync(1, off(i), bufs[s])
		if err != nil {
			t.Fatal(err)
		}
		handles[s] = h
	}
	for s := range handles {
		reap(s)
	}
	return count, e2e
}

// The merged cross-tier table must tile: per-stage means column-sum to
// the caller-measured end-to-end mean over the same traced population.
// Run on both sides of the pipeline's dispatch rule, whose span plumbing
// differs: a working set inside the cache, where after warm-up every read
// is an inline hit, and a cache an eighth of the scanned region, where
// reads miss into scheduler tasks and read-ahead windows ride the
// background lane.
func TestMergedBreakdownTiles(t *testing.T) {
	shapes := []struct {
		name string
		cfg  ServerConfig
	}{
		{"inline", ServerConfig{CacheBlocks: 256}},
		{"sched-store", ServerConfig{CacheBlocks: 16}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			_, addr := startServer(t, sh.cfg, 1<<20)
			reg := obs.New()
			ccfg := DefaultClientConfig()
			ccfg.Metrics = reg
			c, err := Dial(addr, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			count, e2e := driveTracedLoad(t, c, 4000, 8192, 16, func(i int) int64 { return int64(i*8192) % (1 << 20) })
			if count == 0 {
				t.Fatal("no traced requests")
			}
			rows := obs.Breakdown(reg, MergedStageDefs())
			if len(rows) != 7 {
				t.Fatalf("merged table has %d columns, want 7", len(rows))
			}
			var sum float64
			for _, r := range rows {
				sum += r.MeanNS
			}
			measured := float64(e2e.Nanoseconds()) / float64(count)
			dev := (sum - measured) / measured
			t.Logf("stage sum %.0fns vs measured %.0fns (%.2f%%)", sum, measured, 100*dev)
			if dev < -0.10 || dev > 0.10 {
				t.Fatalf("merged stage sum %.0fns deviates %.1f%% from measured e2e %.0fns (want within 10%%)",
					sum, 100*dev, measured)
			}
		})
	}
}

// Satellite 3's cross-check: the scheduler's per-lane/per-tenant gauges
// and the span-derived srv-sched histogram must describe the same run —
// spans sample a subset of what the lane counters see in full.
func TestSchedGaugesCrossCheckSpans(t *testing.T) {
	reg := obs.New()
	// A cache hit is served inline and never meets the scheduler, so the
	// lane counters would undercount a traced population with hits in it.
	// Every read here is a miss, so a task: 4 KB reads of distinct blocks
	// of a 4096-block volume, scattered by a stride far wider than any the
	// read-ahead detector arms on, through a cache that holds few of them.
	const volBlocks = 4096
	scatter := func(i int) int64 { return int64(i*7919%volBlocks) * cacheBlockSize }
	srv, addr := startServer(t, ServerConfig{CacheBlocks: 64, SchedWorkers: 2, Metrics: reg}, volBlocks*cacheBlockSize)

	creg := obs.New()
	ccfg := DefaultClientConfig()
	ccfg.Metrics = creg
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count, _ := driveTracedLoad(t, c, 2000, 4096, 8, scatter)

	st := srv.SchedStats()
	if st.FGDone == 0 {
		t.Fatal("scheduler reports zero foreground completions after load")
	}
	if int64(count) > st.FGDone {
		t.Fatalf("span-traced population %d exceeds scheduler's fg completions %d", count, st.FGDone)
	}
	// The span-derived sched-wait histogram covers exactly the traced
	// subset the client folded in.
	snap := creg.Snapshot()
	h, ok := snap.Hists["netv3_client_stage_srv_sched_ns"]
	if !ok || h.Count != int64(count) {
		t.Fatalf("srv sched span hist count = %+v, want %d observations", h, count)
	}
	// Every traced request ran as a task, so each came back with its span
	// block filled: the service column cannot read zero.
	if cpu := snap.Hists[metricSrvCPU]; cpu.Count != int64(count) || cpu.MeanNS == 0 {
		t.Fatalf("srv cpu span hist = %+v, want %d observations with a nonzero mean", cpu, count)
	}
	// The per-tenant gauge set reflects live backlog only — tenants
	// retire the moment their queues drain — so it must be scraped
	// concurrently with load, from a poller racing the drive loop.
	var found atomic.Bool
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for !found.Load() {
			for k := range reg.Snapshot().Gauges {
				if strings.HasPrefix(k, "netv3_srv_sched_tenant_queued{") {
					found.Store(true)
					return
				}
			}
			select {
			case <-pollStop:
				return
			default:
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !found.Load() && time.Now().Before(deadline) {
		driveTracedLoad(t, c, 512, 4096, 64, scatter)
	}
	close(pollStop)
	<-pollDone
	if !found.Load() {
		t.Fatal("per-tenant sched gauge never appeared in server snapshot during in-flight load")
	}
	ssnap := reg.Snapshot()
	if got, want := ssnap.Gauges["netv3_srv_sched_fg_done_total"], srv.SchedStats().FGDone; got != want {
		t.Fatalf("gauge fg_done %d != SchedStats.FGDone %d", got, want)
	}
}

// An admission-control shed must auto-capture a flight-recorder
// incident with the shed event in the ring. The load is Flushes, each a
// scheduler task, against one worker and an admission limit of one.
func TestShedCapturesFlightIncident(t *testing.T) {
	fl := obs.NewFlight(1024, 2)
	_, addr := startServer(t, ServerConfig{SchedWorkers: 1, AdmitLimit: 1, Flight: fl}, 1<<20)

	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var shed bool
	deadline := time.Now().Add(5 * time.Second)
	for !shed && time.Now().Before(deadline) {
		handles := make([]*Pending, 0, 64)
		for i := 0; i < 64; i++ {
			h, err := c.FlushAsync(1)
			if err != nil {
				break
			}
			handles = append(handles, h)
		}
		for _, h := range handles {
			if err := h.Wait(); err != nil {
				shed = true
			}
		}
	}
	if !shed {
		t.Skip("could not provoke a shed on this machine")
	}
	if fl.Incidents() == 0 {
		t.Fatal("shed observed but no flight incident captured")
	}
	d := fl.LastIncident()
	if d == nil {
		t.Fatal("no incident dump")
	}
	var sawShed bool
	for _, e := range d.Events {
		if e.Name == "sched-shed" {
			sawShed = true
			break
		}
	}
	if !sawShed {
		t.Fatalf("incident dump has no sched-shed event (%d events)", len(d.Events))
	}
}
