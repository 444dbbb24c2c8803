package netv3

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestChaosHungServerDetection is the headline hung-peer scenario: the
// server's link goes silent WITHOUT closing — writes vanish, reads
// stall — which no error return ever reports. The idle-armed keepalive
// must notice within 2× the interval, and with the retry budget also
// exhausted (the peer stays black), every stranded pending must complete
// with ErrConnLost instead of hanging its waiter forever.
func TestChaosHungServerDetection(t *testing.T) {
	f, addr := startFaultServer(t, DefaultServerConfig(), 1<<20)
	const ka = 300 * time.Millisecond
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = ka
	cfg.DialTimeout = 150 * time.Millisecond
	cfg.ReconnectBackoff = 20 * time.Millisecond
	cfg.MaxReconnects = 2
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	f.Inj.Blackhole(true)
	t0 := time.Now()
	// Requests submitted into the blackhole: the writes "succeed" (bytes
	// swallowed), so nothing errors — the handles just strand.
	var handles []*Pending
	for i := 0; i < 4; i++ {
		h, err := c.WriteAsync(1, int64(i)*4096, make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Detection bound: idle for ka arms the ping, the ping's read
	// deadline fires ka later — 2×ka worst case, plus scheduler slack.
	waitFor(t, "hung-peer detection", func() bool { return c.Stats().HungDetections >= 1 })
	detected := time.Since(t0)
	if detected > 2*ka+200*time.Millisecond {
		t.Fatalf("hung peer detected after %v, want within 2×keepalive + slack", detected)
	}
	t.Logf("hung peer detected after %v (keepalive %v)", detected, ka)
	// With the peer still black, reconnection exhausts its budget and
	// every pending resolves with ErrConnLost — no waiter hangs.
	for i, h := range handles {
		if err := h.WaitTimeout(5 * time.Second); !errors.Is(err, ErrConnLost) {
			t.Fatalf("pending %d: err=%v, want ErrConnLost", i, err)
		}
	}
	if total := time.Since(t0); total > 10*time.Second {
		t.Fatalf("stranded pendings took %v to resolve", total)
	}
}

// TestChaosCancelStorm hammers the cancel path under load on a slowed
// link: many goroutines submit, a third of the requests are abandoned
// through tiny bounded waits or explicit Cancel, the rest complete
// normally. Afterwards the credit window must be exactly whole — every
// slot home, nothing leaked, the full window immediately usable.
func TestChaosCancelStorm(t *testing.T) {
	f, addr := startFaultServer(t, DefaultServerConfig(), 4<<20)
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0 // isolate cancellation from hung detection
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.Inj.SetLatency(2*time.Millisecond, 2*time.Millisecond)
	const (
		workers = 8
		perG    = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perG)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < perG; i++ {
				n := g*perG + i
				var h *Pending
				var err error
				if n%2 == 0 {
					h, err = c.WriteAsync(1, int64(n%64)*4096, buf)
				} else {
					h, err = c.ReadAsync(1, int64(n%64)*4096, buf)
				}
				if err != nil {
					errs <- fmt.Errorf("submit %d: %w", n, err)
					return
				}
				switch n % 3 {
				case 0:
					// Abandon through a bound that usually expires mid-flight.
					if err := h.WaitTimeout(time.Millisecond); err != nil &&
						!errors.Is(err, ErrWaitTimeout) {
						errs <- fmt.Errorf("req %d: %w", n, err)
						return
					}
				case 1:
					h.Cancel() // either outcome is legal; slot must come home
					if err := h.Wait(); err != nil && !errors.Is(err, ErrCanceled) {
						errs <- fmt.Errorf("req %d after cancel: %w", n, err)
						return
					}
				default:
					if err := h.Wait(); err != nil {
						errs <- fmt.Errorf("req %d: %w", n, err)
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
	f.Inj.SetLatency(0, 0)
	// Zero leak criterion: every handle has completed, and a completion
	// returns its tokens before it wakes a waiter, so nothing is in flight
	// and every credit token is back in the root's window.
	if c.Stats().InFlight != 0 || len(c.sem) != c.Credits() {
		t.Fatalf("window not whole after storm: inflight=%d tokens=%d/%d",
			c.Stats().InFlight, len(c.sem), c.Credits())
	}
	// And the whole window is genuinely usable: saturate it end-to-end.
	var wg2 sync.WaitGroup
	for i := 0; i < c.Credits(); i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			if err := c.Read(1, int64(i%64)*4096, make([]byte, 4096)); err != nil {
				t.Errorf("post-storm read %d: %v", i, err)
			}
		}(i)
	}
	wg2.Wait()
}

// TestChaosDestagePartition exercises a write-behind server across a
// transient partition: writes are absorbed as dirty cache, the link
// blackholes mid-stream, the keepalive detects it, and reconnection
// replays the stranded writes once the partition heals — after which a
// flush barrier and full read-back must show every byte intact.
func TestChaosDestagePartition(t *testing.T) {
	scfg := DefaultServerConfig()
	scfg.CacheBlocks = 512 // cache present + write-behind on by default
	f, addr := startFaultServer(t, scfg, 4<<20)
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
	// Phase 1: committed before the partition.
	for i := 0; i < 16; i++ {
		if err := c.Write(1, int64(i)*8192, block(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: submitted into the partition; the handles strand until
	// reconnection replays them.
	f.Inj.Blackhole(true)
	var handles []*Pending
	for i := 16; i < 24; i++ {
		h, err := c.WriteAsync(1, int64(i)*8192, block(i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Heal once the keepalive has declared the peer hung, while recovery
	// is inside its retry budget: attempts every ~100-300ms, up to 8.
	waitFor(t, "hung-peer detection", func() bool { return c.Stats().HungDetections >= 1 })
	f.Inj.Blackhole(false)
	for i, h := range handles {
		if err := h.WaitTimeout(15 * time.Second); err != nil {
			t.Fatalf("partition write %d: %v (reconnects=%d hung=%d)",
				i, err, c.Reconnects(), c.Stats().HungDetections)
		}
	}
	if c.Stats().HungDetections < 1 {
		t.Fatal("partition was never detected as a hung peer")
	}
	if c.Reconnects() < 1 {
		t.Fatal("client never reconnected across the partition")
	}
	// Durability barrier, then verify every block — phase 1 and the
	// replayed phase 2 — survived the partition.
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

// TestChaosKeepaliveQuietOnHealthyLink pins the hot-path cost contract:
// on a link with steady traffic the keepalive must never fire — the
// detector is idle-armed, so a healthy busy connection pays only the
// per-frame timestamp store.
func TestChaosKeepaliveQuietOnHealthyLink(t *testing.T) {
	_, addr := startFaultServer(t, DefaultServerConfig(), 1<<20)
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 100 * time.Millisecond
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Back-to-back traffic for several intervals.
	buf := make([]byte, 512)
	for t0 := time.Now(); time.Since(t0) < 5*cfg.KeepaliveInterval; {
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.KeepalivePings != 0 {
		t.Fatalf("keepalive sent %d pings on a busy link, want 0", st.KeepalivePings)
	}
	// Now idle: the ping fires, the server pongs (which disarms the
	// deadline), and nothing trips.
	waitFor(t, "a keepalive ping and its pong", func() bool {
		return c.Stats().KeepalivePings >= 1 && !c.kaArmed.Load()
	})
	if st := c.Stats(); st.HungDetections != 0 {
		t.Fatalf("healthy idle link produced %d hung detections", st.HungDetections)
	}
	// The link still works after idling through keepalive cycles.
	if err := c.Read(1, 0, buf); err != nil {
		t.Fatalf("read after idle keepalives: %v", err)
	}
}
