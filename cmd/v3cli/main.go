// Command v3cli is a client for v3d storage daemons: single reads and
// writes plus a small throughput/latency bench mode. Pointed at one
// server with -addr it speaks netv3 directly; pointed at several with
// -servers it assembles them into one logical cluster volume (the V3
// "volume vault"), striped for throughput or mirrored for availability.
//
// Usage:
//
//	v3cli -addr host:9300 write 4096 "hello"
//	v3cli -addr host:9300 read 4096 5
//	v3cli -addr host:9300 flush
//	v3cli -addr host:9300 bench -n 1000 -size 8192 -depth 8
//	v3cli -addr host:9300 bench -n 100000 -size 8192 -window 16   # async pipeline
//	v3cli -addr host:9300 bench -n 100000 -streams 1000           # 1000 logical clients, one conn
//	v3cli -addr host:9300 status                                  # session + stream counters
//	v3cli -addr host:9300 status host:9400                        # + the server's frames per socket write and lanes
//	v3cli -addr host:9300 trace -n 20000 -size 8192 -window 16            # merged cross-tier stage table
//	v3cli -addr host:9300 trace -metrics host:9400                        # + per-lane/per-tenant sched breakdown
//
//	v3cli -servers a:9300,b:9300 -stripe -size 67108864 bench -n 100000
//	v3cli -servers a:9300,b:9300 -mirror -size 67108864 write 4096 "hello"
//	v3cli -servers a:9300,b:9300 -mirror -size 67108864 status
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/vvault"
)

// blockIO is the slice of the client surface the subcommands need; both
// a single netv3 session and a cluster vault provide it.
type blockIO interface {
	Read(off int64, buf []byte) error
	Write(off int64, data []byte) error
	Flush() error
}

// singleIO adapts one netv3 client to blockIO.
type singleIO struct {
	c       *netv3.Client
	vol     uint32
	timeout time.Duration
}

// ctx returns the per-request bound: Background when -iotimeout is 0.
// The context-aware client calls cancel the request on expiry, so the
// CLI's buffers are reusable the moment an error returns.
func (s singleIO) ctx() (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), s.timeout)
}

func (s singleIO) Read(off int64, buf []byte) error {
	ctx, cancel := s.ctx()
	defer cancel()
	return s.c.ReadCtx(ctx, s.vol, off, buf)
}

func (s singleIO) Write(off int64, data []byte) error {
	ctx, cancel := s.ctx()
	defer cancel()
	return s.c.WriteCtx(ctx, s.vol, off, data)
}

func (s singleIO) Flush() error {
	ctx, cancel := s.ctx()
	defer cancel()
	return s.c.FlushCtx(ctx, s.vol)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9300", "v3d address (single-server mode)")
	servers := flag.String("servers", "", "comma-separated v3d addresses (cluster mode)")
	mirror := flag.Bool("mirror", false, "cluster mode: mirror the volume on every server (RAID-1)")
	stripe := flag.Bool("stripe", false, "cluster mode: stripe the volume across the servers (RAID-0)")
	stripeSize := flag.Int64("stripesize", 64<<10, "cluster stripe unit in bytes")
	memberSize := flag.Int64("size", 64<<20, "cluster mode: bytes used on each server")
	vol := flag.Uint("vol", 1, "volume id")
	keepalive := flag.Duration("keepalive", netv3.DefaultClientConfig().KeepaliveInterval,
		"hung-peer probe interval on idle links (0 disables); a silent server is declared dead within 2x this")
	iotimeout := flag.Duration("iotimeout", 0,
		"per-request bound (0 = wait forever); an expired request is canceled and its buffer returned")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "v3cli: need a command: read | write | flush | status | bench | trace")
		os.Exit(2)
	}

	var io blockIO
	var vault *vvault.Vault
	var client *netv3.Client
	var clientReg *obs.Registry
	if *servers != "" {
		if *mirror == *stripe {
			log.Fatal("v3cli: cluster mode needs exactly one of -mirror or -stripe")
		}
		mode := vvault.ModeStripe
		if *mirror {
			mode = vvault.ModeMirror
		}
		cfg := vvault.DefaultConfig(mode)
		cfg.Volume = uint32(*vol)
		cfg.MemberSize = *memberSize
		cfg.StripeSize = *stripeSize
		cfg.Client.KeepaliveInterval = *keepalive
		if *iotimeout > 0 {
			cfg.IOTimeout = *iotimeout
		}
		cfg.Logger = log.New(os.Stderr, "", log.LstdFlags)
		v, err := vvault.Open(strings.Split(*servers, ","), cfg)
		if err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		defer v.Close()
		vault, io = v, v
	} else {
		ccfg := netv3.DefaultClientConfig()
		ccfg.KeepaliveInterval = *keepalive
		// The trace command needs the client's stage trace enabled from
		// the first request, so the registry attaches before Dial.
		var reg *obs.Registry
		if args[0] == "trace" {
			reg = obs.New()
			ccfg.Metrics = reg
		}
		c, err := netv3.Dial(*addr, ccfg)
		if err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		defer c.Close()
		client, clientReg, io = c, reg, singleIO{c, uint32(*vol), *iotimeout}
	}

	switch args[0] {
	case "read":
		if len(args) != 3 {
			log.Fatal("v3cli: read <offset> <length>")
		}
		off, _ := strconv.ParseInt(args[1], 10, 64)
		n, _ := strconv.Atoi(args[2])
		buf := make([]byte, n)
		if err := io.Read(off, buf); err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		os.Stdout.Write(buf)
		fmt.Println()
	case "write":
		if len(args) != 3 {
			log.Fatal("v3cli: write <offset> <data>")
		}
		off, _ := strconv.ParseInt(args[1], 10, 64)
		if err := io.Write(off, []byte(args[2])); err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		fmt.Println("ok")
	case "flush":
		if err := io.Flush(); err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		fmt.Println("ok")
	case "status":
		if vault != nil {
			printStatus(vault)
		} else {
			printClientStatus(client)
		}
		// An optional argument names a server metrics endpoint, for the
		// other end's half of the same counters and its scheduler lanes.
		for _, addr := range args[1:] {
			printSchedBreakdown(addr)
		}
	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		n := fs.Int("n", 1000, "I/Os")
		size := fs.Int("size", 8192, "request size")
		depth := fs.Int("depth", 8, "concurrent streams")
		window := fs.Int("window", 0, "async pipeline depth (single-server mode only; 0 = sync goroutine bench)")
		nStreams := fs.Int("streams", 0, "multiplex the load over this many logical streams on one connection (single-server mode only)")
		background := fs.Bool("background", false, "with -streams: ride the server's background QoS lane")
		writes := fs.Bool("writes", false, "write instead of read")
		_ = fs.Parse(args[1:])
		region := int64(1 << 20)
		if vault != nil {
			region = vault.Size()
		}
		switch {
		case *nStreams > 0:
			if client == nil {
				log.Fatal("v3cli: -streams bench needs single-server mode (the vault multiplexes internally)")
			}
			runStreamBench(client, uint32(*vol), *n, *size, *nStreams, *background, *writes)
		case *window > 0:
			if client == nil {
				log.Fatal("v3cli: -window bench needs single-server mode (the vault pipelines internally)")
			}
			runAsyncBench(client, uint32(*vol), *n, *size, *window, *writes)
		default:
			runBench(io, *n, *size, *depth, region, *writes)
		}
	case "trace":
		if client == nil {
			log.Fatal("v3cli: trace needs single-server mode (-addr)")
		}
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		n := fs.Int("n", 20000, "I/Os")
		size := fs.Int("size", 8192, "request size")
		window := fs.Int("window", 16, "async pipeline depth")
		writes := fs.Bool("writes", false, "write instead of read")
		metrics := fs.String("metrics", "", "server metrics address (host:9400) for per-lane and per-tenant scheduler breakdowns")
		_ = fs.Parse(args[1:])
		runTrace(client, clientReg, uint32(*vol), *n, *size, *window, *writes, *metrics)
	default:
		log.Fatalf("v3cli: unknown command %q", args[0])
	}
}

// driveWindow keeps window async requests in flight on c — n in all, of
// size bytes each, at offsets sweeping the volume's first MB — and hands
// each completed one to done with its latency measured at the call site
// (submit → Wait return).
func driveWindow(c *netv3.Client, vol uint32, n, size, window int, writes bool, done func(h *netv3.Pending, lat time.Duration)) {
	window = max(window, 1)
	bufs := make([][]byte, window)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	handles := make([]*netv3.Pending, window)
	starts := make([]time.Time, window)
	reap := func(s int) {
		if handles[s] == nil {
			return
		}
		if err := handles[s].Wait(); err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		done(handles[s], time.Since(starts[s]))
		handles[s] = nil
	}
	for i := 0; i < n; i++ {
		s := i % window
		reap(s)
		off := int64(i*size) % (1 << 20)
		starts[s] = time.Now()
		var h *netv3.Pending
		var err error
		if writes {
			h, err = c.WriteAsync(vol, off, bufs[s])
		} else {
			h, err = c.ReadAsync(vol, off, bufs[s])
		}
		if err != nil {
			log.Fatalf("v3cli: %v", err)
		}
		handles[s] = h
	}
	for s := range handles {
		reap(s)
	}
}

// runTrace drives the async-window workload and prints the stage table:
// the client's stages, with the interval between doorbell and response
// split into the scheduler wait and service time reported by the server's
// span block and the remainder as true network+kernel cost. The stage-sum
// row is checked against the traced subset's end-to-end time measured at
// the call site. With -metrics it also fetches the server registry and
// prints the per-lane and per-tenant scheduler breakdowns the spans are
// attributed by.
func runTrace(c *netv3.Client, reg *obs.Registry, vol uint32, n, size, window int, writes bool, metrics string) {
	var done, count int
	var e2e time.Duration
	driveWindow(c, vol, n, size, window, writes, func(h *netv3.Pending, lat time.Duration) {
		done++
		if h.Traced() {
			e2e += lat
			count++
		}
	})
	if count == 0 {
		log.Fatal("v3cli: no traced I/Os completed")
	}
	op := "reads"
	if writes {
		op = "writes"
	}
	fmt.Printf("%d %s of %d bytes, window %d (%d traced end-to-end)\n", done, op, size, window, count)
	rows := obs.Breakdown(reg, netv3.MergedStageDefs())
	fmt.Print(obs.FormatBreakdown(rows, float64(e2e.Nanoseconds())/float64(count)))
	printClientWire(c)
	if metrics != "" {
		printSchedBreakdown(metrics)
	}
}

// wireLine renders one end's frame-writer counters: frames put on the
// wire, the socket writes that carried them, and their ratio — the
// batching factor (1 for a lone blocking caller, up to the window for an
// async submitter or the responses to one).
func wireLine(frames, writes int64) string {
	per := 0.0
	if writes > 0 {
		per = float64(frames) / float64(writes)
	}
	return fmt.Sprintf("frames_sent=%d wire_writes=%d frames_per_write=%.2f", frames, writes, per)
}

// serverWireLine is wireLine over a server's response writers, all
// sessions, from its metrics snapshot.
func serverWireLine(snap obs.SnapshotJSON) string {
	return wireLine(snap.Gauges["netv3_srv_frames_sent_total"], snap.Gauges["netv3_srv_wire_writes_total"])
}

// printClientWire reports how the run's requests batched onto the socket.
func printClientWire(c *netv3.Client) {
	st := c.Stats()
	fmt.Printf("client wire: %s\n", wireLine(st.FramesSent, st.WireWrites))
}

// fetchMetrics reads a server's JSON metrics snapshot.
func fetchMetrics(addr string) obs.SnapshotJSON {
	url := "http://" + addr + "/metrics?format=json"
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("v3cli: fetch %s: %v", url, err)
	}
	defer resp.Body.Close()
	var snap obs.SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatalf("v3cli: decode %s: %v", url, err)
	}
	return snap
}

// printSchedBreakdown fetches the server's metrics snapshot and renders
// its wire batching, the scheduler's per-lane counters and per-tenant
// queue depths.
func printSchedBreakdown(addr string) {
	snap := fetchMetrics(addr)
	g := snap.Gauges
	fmt.Printf("\nserver wire (%s): %s\n", addr, serverWireLine(snap))
	fmt.Printf("server scheduler (%s):\n", addr)
	for _, lane := range []string{"fg", "bg"} {
		line := fmt.Sprintf("  lane %-2s: queued=%d done=%d tenants=%d", lane,
			g["netv3_srv_sched_"+lane+"_queued"],
			g["netv3_srv_sched_"+lane+"_done_total"],
			g["netv3_srv_sched_"+lane+"_tenants"])
		if h, ok := snap.Hists["netv3_srv_sched_"+lane+"_wait_ns"]; ok && h.Count > 0 {
			line += fmt.Sprintf(" wait mean=%v p99=%v",
				time.Duration(int64(h.MeanNS)).Round(time.Microsecond),
				time.Duration(int64(h.P99NS)).Round(time.Microsecond))
		}
		fmt.Println(line)
	}
	fmt.Printf("  sheds=%d stride_fires=%d\n",
		g["netv3_srv_sched_shed_total"], g["netv3_srv_sched_stride_fires_total"])
	const tenantPrefix = "netv3_srv_sched_tenant_queued"
	var tenants []string
	for k := range g {
		if strings.HasPrefix(k, tenantPrefix+"{") {
			tenants = append(tenants, k)
		}
	}
	sort.Strings(tenants)
	for _, k := range tenants {
		fmt.Printf("  tenant %s queued=%d\n", strings.TrimPrefix(k, tenantPrefix), g[k])
	}
}

// printClientStatus renders one session's live counters — the
// single-server face of `status`.
func printClientStatus(c *netv3.Client) {
	st := c.Stats()
	fmt.Printf("streams_open=%d streams_opened=%d in_flight=%d reconnects=%d retries=%d\n",
		st.StreamsOpen, st.StreamsOpened, st.InFlight, st.Reconnects, st.Retries)
	fmt.Println(wireLine(st.FramesSent, st.WireWrites))
}

// printStatus renders the vault's per-backend health table plus, in
// mirror mode, the replication log's sequence positions: each replica's
// applied cursor and flush watermark against the log head, and the
// log's own depth/truncation state.
func printStatus(v *vvault.Vault) {
	fmt.Printf("mode=%s size=%d\n", v.Mode(), v.Size())
	mirror := v.Mode() == vvault.ModeMirror
	for i, st := range v.Status() {
		fmt.Printf("backend %d %-21s %-7s consec=%d trips=%d reconnects=%d",
			i, st.Addr, st.State, st.Consecutive, st.Trips, st.Reconnects)
		if st.LastProbeRTT > 0 {
			fmt.Printf(" probe_rtt=%v", st.LastProbeRTT)
		}
		if st.StreamCredits > 0 { // the backend has a client; stream 0 is its root
			fmt.Printf(" data_stream=%d credits=%d resync_stream=%d", st.DataStream, st.StreamCredits, st.ResyncStream)
		}
		if mirror {
			fmt.Printf(" log_cursor=%d watermark=%d", st.LogCursor, st.LogWatermark)
			if st.UnflushedBytes > 0 {
				fmt.Printf(" unflushed=%dB", st.UnflushedBytes)
			}
		}
		if st.DirtyBytes > 0 {
			fmt.Printf(" resync_remaining=%dB/%d ranges", st.DirtyBytes, st.DirtyRanges)
		}
		if st.WireWrites > 0 {
			fmt.Printf(" %s", wireLine(st.FramesSent, st.WireWrites))
		}
		fmt.Println()
	}
	if mirror {
		ls := v.LogStatus()
		fmt.Printf("repl_log head=%d base=%d records=%d folded=%d fallbacks=%d\n",
			ls.Head, ls.Base, ls.Records, ls.Folded, ls.Fallbacks)
		for name, cur := range v.FeedCursors() {
			fmt.Printf("feed %-21s cursor=%d lag=%d\n", name, cur, ls.Head-cur)
		}
	}
	s := v.Stats()
	fmt.Printf("degraded_reads=%d degraded_writes=%d degraded_seconds=%.1f resyncs=%d resynced_bytes=%d resync_replayed_bytes=%d resync_fallbacks=%d\n",
		s.DegradedReads, s.DegradedWrites, s.DegradedSeconds, s.Resyncs, s.ResyncedBytes, s.ResyncReplayedBytes, s.ResyncFallbacks)
}

// latColumns renders a histogram snapshot as the bench paths' shared
// latency tail columns. Every bench runner records per-op latency into
// an obs.Hist — the same lock-free histogram the server and client
// metrics use — so the CLI's numbers and the obs pipeline's numbers are
// the same kind of estimate (log2 buckets, exact mean).
func latColumns(s obs.HistSnapshot) string {
	q := func(p float64) time.Duration {
		return time.Duration(int64(s.Quantile(p))).Round(time.Microsecond)
	}
	return fmt.Sprintf("mean %v, p50 %v, p95 %v, p99 %v",
		time.Duration(int64(s.Mean())).Round(time.Microsecond), q(0.50), q(0.95), q(0.99))
}

// runStreamBench multiplexes the load over nStreams logical streams on
// the single wire connection — the many-sessions-per-VI shape. Each
// stream is one synchronous logical client; the per-op latency
// distribution (p50/p95/p99) is the point, since a flat tail at high
// stream counts is what the multiplexing layer promises. Admission
// sheds are counted, not fatal.
func runStreamBench(c *netv3.Client, vol uint32, n, size, nStreams int, background, writes bool) {
	streams := make([]*netv3.Stream, nStreams)
	for i := range streams {
		streams[i] = c.OpenStream(netv3.StreamConfig{Credits: 4, Background: background})
	}
	per := n / nStreams
	if per == 0 {
		per = 1
	}
	var lat obs.Hist
	var shed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *netv3.Stream) {
			defer wg.Done()
			buf := make([]byte, size)
			for k := 0; k < per; k++ {
				off := int64((i*per+k)*size) % (1 << 20)
				s := time.Now()
				var err error
				if writes {
					err = st.Write(vol, off, buf)
				} else {
					err = st.Read(vol, off, buf)
				}
				if err != nil {
					if errors.Is(err, netv3.ErrOverloaded) {
						shed.Add(1)
						continue
					}
					log.Printf("v3cli: stream %d: %v", i, err)
					return
				}
				lat.Observe(time.Since(s).Nanoseconds())
			}
		}(i, st)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, st := range streams {
		_ = st.Close()
	}
	snap := lat.Snapshot()
	if snap.Count() == 0 {
		log.Fatal("v3cli: no I/Os completed")
	}
	fmt.Printf("%d I/Os of %d bytes over %d streams (1 conn): %.0f ops/s, %s, shed %d\n",
		snap.Count(), size, nStreams,
		float64(snap.Count())/elapsed.Seconds(),
		latColumns(snap), shed.Load())
}

// runAsyncBench drives the async API from one goroutine, keeping up to
// `window` requests in flight — the pipelined submission pattern the
// paper's cDSA clients use, and the fastest way to use netv3 batching.
func runAsyncBench(c *netv3.Client, vol uint32, n, size, window int, writes bool) {
	var lat obs.Hist
	t0 := time.Now()
	driveWindow(c, vol, n, size, window, writes, func(_ *netv3.Pending, d time.Duration) {
		lat.Observe(d.Nanoseconds())
	})
	elapsed := time.Since(t0)
	fmt.Printf("%d I/Os of %d bytes, window %d: %.0f ops/s, %.1f MB/s, %s\n",
		n, size, window,
		float64(n)/elapsed.Seconds(),
		float64(n)*float64(size)/elapsed.Seconds()/1e6,
		latColumns(lat.Snapshot()))
	printClientWire(c)
}

// runBench fans `depth` synchronous streams over the target; against a
// vault each stream's requests pipeline through the async extent fan-out
// underneath, so depth is the cluster's outstanding-I/O count.
func runBench(io blockIO, n, size, depth int, region int64, writes bool) {
	var wg sync.WaitGroup
	var lat obs.Hist
	t0 := time.Now()
	per := n / depth
	for d := 0; d < depth; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			buf := make([]byte, size)
			for i := 0; i < per; i++ {
				off := int64((d*per+i)*size) % (region - int64(size))
				off -= off % int64(size)
				s := time.Now()
				var err error
				if writes {
					err = io.Write(off, buf)
				} else {
					err = io.Read(off, buf)
				}
				if err != nil {
					log.Printf("v3cli: %v", err)
					return
				}
				lat.Observe(time.Since(s).Nanoseconds())
			}
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	snap := lat.Snapshot()
	if snap.Count() == 0 {
		log.Fatal("v3cli: no I/Os completed")
	}
	fmt.Printf("%d I/Os of %d bytes, depth %d: %.1f MB/s, %s\n",
		snap.Count(), size, depth,
		float64(snap.Count())*float64(size)/elapsed.Seconds()/1e6,
		latColumns(snap))
}
