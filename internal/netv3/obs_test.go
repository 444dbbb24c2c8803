package netv3

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// TestBreakdownSums checks the tiling invariant behind the breakdown
// table: the seven stages partition a request's lifetime, so their
// per-stage means must column-sum to the end-to-end mean the caller
// measures independently. Traces are sampled, so the caller's mean is
// taken over the same traced requests (Pending.Traced) — otherwise a
// GC pause or scheduler stall landing on an untraced request would skew
// the comparison populations apart.
func TestBreakdownSums(t *testing.T) {
	scfg := DefaultServerConfig()
	scfg.CacheBlocks = 256
	_, addr := startServer(t, scfg, 4<<20)
	reg := obs.New()
	ccfg := DefaultClientConfig()
	ccfg.Metrics = reg
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2000
	buf := make([]byte, 8192)
	if err := c.Write(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	var e2e time.Duration
	var traced int64
	for i := 0; i < n; i++ {
		off := int64(i%256) * 8192
		s := time.Now()
		h, err := c.ReadAsync(1, off, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if h.Traced() {
			e2e += time.Since(s)
			traced++
		}
	}

	// benchmark/layers.go maps these rows to its per-layer metrics by
	// display name and reads the histograms by metric name: a rename here
	// reads zero there instead of failing to build.
	want := []obs.StageDef{
		{Display: "submission", Metric: "netv3_client_stage_submit_ns"},
		{Display: "wire write", Metric: "netv3_client_stage_wire_ns"},
		{Display: "srv sched wait", Metric: "netv3_client_stage_srv_sched_ns"},
		{Display: "srv cpu", Metric: "netv3_client_stage_srv_cpu_ns"},
		{Display: "net+kernel", Metric: "netv3_client_stage_net_ns"},
		{Display: "delivery", Metric: "netv3_client_stage_deliver_ns"},
		{Display: "wakeup", Metric: "netv3_client_stage_wake_ns"},
	}
	if defs := MergedStageDefs(); !slices.Equal(defs, want) {
		t.Fatalf("stage table = %+v, want %+v", defs, want)
	}
	rows := obs.Breakdown(reg, MergedStageDefs())
	// Traces are sampled 1-in-traceSample, deterministically by submit
	// count, so the loop sees n/traceSample traced requests give or take
	// the handshake write.
	if want := int64(n/traceSample - 1); traced < want {
		t.Fatalf("traced %d requests, want >= %d", traced, want)
	}
	for _, r := range rows {
		if r.Count < traced {
			t.Fatalf("stage %q recorded %d traces, want >= %d", r.Stage, r.Count, traced)
		}
	}
	stageSum := obs.SumMeanNS(rows)
	e2eMean := float64(e2e.Nanoseconds()) / float64(traced)
	dev := (stageSum - e2eMean) / e2eMean
	if dev < 0 {
		dev = -dev
	}
	t.Logf("stage sum %.0fns vs e2e mean %.0fns (%.1f%% deviation)", stageSum, e2eMean, 100*dev)
	if dev > 0.10 {
		t.Fatalf("stage means sum to %.0fns but measured e2e mean is %.0fns (%.1f%% off, want <= 10%%)\n%s",
			stageSum, e2eMean, 100*dev, obs.FormatBreakdown(rows, e2eMean))
	}
}

// TestMetricsEndpoint scrapes the live HTTP endpoint — Prometheus text
// and the JSON snapshot — while a mixed workload runs against an
// instrumented server, the way an operator would.
func TestMetricsEndpoint(t *testing.T) {
	sreg := obs.New()
	scfg := DefaultServerConfig()
	scfg.CacheBlocks = 256
	scfg.Metrics = sreg
	_, addr := startServer(t, scfg, 4<<20)
	creg := obs.New()
	ccfg := DefaultClientConfig()
	ccfg.Metrics = creg
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ep := httptest.NewServer(obs.Handler(sreg, creg))
	defer ep.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8192)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			off := int64(i%128) * 8192
			if i%3 == 0 {
				_ = c.Write(1, off, buf)
			} else {
				_ = c.Read(1, off, buf)
			}
			if i%64 == 63 {
				_ = c.Flush(1)
			}
		}
	}()

	scrape := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Let the workload produce some traffic, then scrape both formats a
	// few times mid-flight.
	time.Sleep(50 * time.Millisecond)
	var prom string
	var snap obs.SnapshotJSON
	for i := 0; i < 3; i++ {
		prom = scrape(ep.URL + "/metrics")
		if err := json.Unmarshal([]byte(scrape(ep.URL+"/metrics?format=json")), &snap); err != nil {
			t.Fatalf("JSON snapshot: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for _, want := range []string{
		"netv3_srv_dispatch_ns",
		"netv3_srv_served_total",
		"netv3_srv_cache_hits_total",
		"netv3_client_stage_submit_ns",
		"netv3_client_stage_net_ns",
		`quantile="0.99"`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus scrape missing %q:\n%s", want, prom)
		}
	}
	if snap.Gauges["netv3_srv_served_total"] <= 0 {
		t.Fatalf("JSON snapshot served_total = %d, want > 0", snap.Gauges["netv3_srv_served_total"])
	}
	if h := snap.Hists["netv3_client_stage_net_ns"]; h.Count <= 0 || h.MeanNS <= 0 {
		t.Fatalf("JSON snapshot client net+kernel stage empty: %+v", h)
	}
	if h := snap.Hists["netv3_srv_dispatch_ns"]; h.Count <= 0 {
		t.Fatalf("JSON snapshot dispatch hist empty: %+v", h)
	}
}

// TestClientStats exercises the exported health counters: wait timeouts
// against a deliberately slow store, and retries/reconnects after a
// severed session.
func TestClientStats(t *testing.T) {
	scfg := DefaultServerConfig()
	_, addr := startTunedServer(t, scfg, tuning{}, &slowStore{BlockStore: NewMemStore(1 << 20), delay: 30 * time.Millisecond})

	ccfg := DefaultClientConfig()
	ccfg.ReconnectBackoff = 20 * time.Millisecond
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, 512)
	h, err := c.ReadAsync(1, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.InFlight != 1 {
		t.Fatalf("InFlight = %d, want 1", st.InFlight)
	}
	if err := h.WaitTimeout(time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("WaitTimeout = %v, want ErrWaitTimeout", err)
	}
	if st := c.Stats(); st.WaitTimeouts != 1 {
		t.Fatalf("WaitTimeouts = %d, want 1", st.WaitTimeouts)
	}
	// The expired wait canceled the request: later waiters observe the
	// same status, the cancel is counted, and the slot is already back —
	// nothing stays in flight pinning the window.
	if err := h.Wait(); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Wait after expiry = %v, want ErrWaitTimeout", err)
	}
	if st := c.Stats(); st.InFlight != 0 || st.Cancels != 1 {
		t.Fatalf("after expiry: InFlight=%d Cancels=%d, want 0 and 1", st.InFlight, st.Cancels)
	}

	c.KillConnForTest()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Read(1, 0, buf); err == nil {
			break
		}
	}
	st := c.Stats()
	if st.Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", st.Reconnects)
	}
}
