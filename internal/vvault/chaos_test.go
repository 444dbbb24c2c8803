package vvault

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
	"github.com/v3storage/v3/internal/netv3"
)

// startFaultBackend runs a v3d-equivalent backend whose sessions all
// pass through a faultnet injector, so a test can blackhole the backend
// — alive at the TCP level, silent at the protocol level — which is the
// failure the probe loop and keepalive exist to catch.
func startFaultBackend(t *testing.T, store netv3.BlockStore) (*faultnet.Injector, string) {
	t.Helper()
	return startFaultBackendCfg(t, store, netv3.DefaultServerConfig())
}

func startFaultBackendCfg(t *testing.T, store netv3.BlockStore, cfg netv3.ServerConfig) (*faultnet.Injector, string) {
	t.Helper()
	inj := faultnet.New(1)
	srv := netv3.NewServer(cfg)
	srv.AddVolume(1, store)
	ln, err := inj.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.ListenOn(ln)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return inj, ln.Addr().String()
}

// chaosConfig tightens testConfig further for blackhole scenarios: short
// keepalive so the clients themselves notice silent peers, and dial
// bounds small enough that reconnect attempts into a blackhole fail
// fast instead of eating the test budget.
func chaosConfig(mode Mode, member int64) Config {
	cfg := testConfig(mode, member)
	cfg.ProbeTimeout = 300 * time.Millisecond
	cfg.IOTimeout = 2 * time.Second
	cfg.Client.KeepaliveInterval = 200 * time.Millisecond
	cfg.Client.DialTimeout = 300 * time.Millisecond
	cfg.Client.MaxReconnects = 2
	cfg.Client.ReconnectBackoff = 20 * time.Millisecond
	return cfg
}

// TestChaosVaultBlackholedBackendFailoverAndResync is the cluster-level
// headline: a mirror replica goes SILENT (blackholed, not killed — its
// listener still accepts), the vault must trip it while serving from the
// healthy replica, and once the partition heals the probe loop must
// bring it back through resync with the data it missed.
func TestChaosVaultBlackholedBackendFailoverAndResync(t *testing.T) {
	const member = 1 << 20
	storeA := netv3.NewMemStore(member)
	storeB := netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	injB, addrB := startFaultBackend(t, storeB)
	v, err := Open([]string{addrA, addrB}, chaosConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Seed data while both replicas are healthy.
	for i := 0; i < 8; i++ {
		if err := v.Write(int64(i)*8192, pattern(int64(i)*8192, 1, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	// The partition: B stays accept-able but goes protocol-silent.
	injB.Blackhole(true)
	// I/O must keep succeeding (mirror degrades to A) and B must trip —
	// via probe timeout, keepalive hung-detection, or IO timeout,
	// whichever fires first; all roads lead to Down.
	deadline := time.Now().Add(15 * time.Second)
	gen := byte(2)
	for v.Status()[1].State != "down" {
		if time.Now().After(deadline) {
			t.Fatalf("blackholed backend never tripped: %+v", v.Status())
		}
		if err := v.Write(0, pattern(0, gen, 8192)); err != nil {
			t.Fatalf("write during partition: %v", err)
		}
		gen++
		time.Sleep(50 * time.Millisecond)
	}
	t.Logf("backend tripped; trips=%d", v.Status()[1].Trips)
	// Degraded-mode writes that B will have to catch up on.
	for i := 8; i < 16; i++ {
		if err := v.Write(int64(i)*8192, pattern(int64(i)*8192, 3, 8192)); err != nil {
			t.Fatalf("degraded write %d: %v", i, err)
		}
	}
	// Heal. The probe loop redials, resyncs the dirty ranges, and
	// returns B to service.
	injB.Blackhole(false)
	waitForState(t, v, 1, "up", 20*time.Second)
	// Every byte — including the degraded-mode writes — must now be
	// readable, and B's replica must actually hold the catch-up data.
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	for i := 8; i < 16; i++ {
		if err := v.Read(int64(i)*8192, got); err != nil {
			t.Fatalf("read-back %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(int64(i)*8192, 3, 8192)) {
			t.Fatalf("block %d wrong after resync", i)
		}
		if err := storeB.ReadAt(got, int64(i)*8192); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(int64(i)*8192, 3, 8192)) {
			t.Fatalf("replica B missing degraded-mode block %d after resync", i)
		}
	}
}

// TestChaosVaultProbeWedge is the regression test for the probe-loop
// wedge: with the credit window exhausted by hung data-path requests,
// probeOnce used to block forever inside the unbounded credit acquire —
// the health loop could never trip the very backend that wedged it.
// Bounded acquisition turns that into threshold-counted probe failures
// and the backend trips. Client keepalive is disabled to prove the probe
// path alone detects it.
func TestChaosVaultProbeWedge(t *testing.T) {
	const member = 1 << 20
	srvCfg := netv3.DefaultServerConfig()
	srvCfg.Credits = 2 // tiny window wedges fast
	inj, addr := startFaultBackendCfg(t, netv3.NewMemStore(member), srvCfg)
	cfg := chaosConfig(ModeStripe, member)
	cfg.Client.KeepaliveInterval = 0 // isolate: only the probe can save us
	cfg.ProbeTimeout = 200 * time.Millisecond
	cfg.IOTimeout = 30 * time.Second // data path holds its slots for ages
	v, err := Open([]string{addr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Write(0, pattern(0, 1, 8192)); err != nil {
		t.Fatal(err)
	}
	// Silence the backend, then wedge the whole credit window with
	// data-path reads that will sit on their slots for IOTimeout.
	inj.Blackhole(true)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = v.Read(0, make([]byte, 8192)) // fails eventually; that's fine
		}()
	}
	// The probe loop must still trip the backend: starved probes count
	// toward the threshold instead of joining the wedge. Pre-fix this
	// poll never succeeds — probeOnce is parked waiting for a credit token.
	deadline := time.Now().Add(10 * time.Second)
	for v.Status()[0].State != "down" {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop wedged: backend never tripped (status=%+v)", v.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Tripping closed the client, so the wedged readers fail fast now
	// rather than waiting out IOTimeout.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wedged data-path requests did not fail after trip")
	}
	inj.Blackhole(false)
	waitForState(t, v, 0, "up", 20*time.Second)
	got := make([]byte, 8192)
	if err := v.Read(0, got); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(got, pattern(0, 1, 8192)) {
		t.Fatal("data lost across probe-wedge trip/recovery")
	}
}

// TestChaosVaultBlackholedDialDoesNotWedgeRecovery pins the recovery
// loop's dial bound: tryRecover dials a backend that accepts TCP but
// never answers the handshake. The dial must fail within DialTimeout and
// the vault must keep serving — recovery ticks never stack up behind a
// hung handshake.
func TestChaosVaultBlackholedDialDoesNotWedgeRecovery(t *testing.T) {
	const member = 1 << 20
	storeA := netv3.NewMemStore(member)
	storeB := netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	injB, addrB := startFaultBackend(t, storeB)
	v, err := Open([]string{addrA, addrB}, chaosConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Write(0, pattern(0, 1, 8192)); err != nil {
		t.Fatal(err)
	}
	injB.Blackhole(true)
	waitForState(t, v, 1, "down", 15*time.Second)
	// B is down and BLACKHOLED: every tryRecover dial TCP-connects and
	// then hangs in the handshake until DialTimeout. Throughout, the
	// healthy half must serve reads at full tilt.
	stop := time.Now().Add(2 * time.Second)
	buf := make([]byte, 8192)
	for time.Now().Before(stop) {
		start := time.Now()
		if err := v.Read(0, buf); err != nil {
			t.Fatalf("read while recovery dials a blackhole: %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("read took %v while recovery dials a blackhole", d)
		}
	}
	injB.Blackhole(false)
	waitForState(t, v, 1, "up", 20*time.Second)
}

// deadConn is a sanity guard for the harness itself: the injector's
// listener really does accept while blackholed, which is what separates
// these scenarios from plain kill-the-server tests.
func TestChaosHarnessAcceptsWhileBlackholed(t *testing.T) {
	inj, addr := startFaultBackend(t, netv3.NewMemStore(1<<20))
	inj.Blackhole(true)
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("blackholed backend refused TCP: %v", err)
	}
	c.Close()
}
