package netv3

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
)

// startFaultServerStore is startFaultServer with a caller-supplied store,
// for chaos runs that need injected device latency as well as injected
// network faults.
func startFaultServerStore(t *testing.T, cfg ServerConfig, tune tuning, store BlockStore) (*Injected, string) {
	t.Helper()
	inj := faultnet.New(1)
	srv := newServer(cfg, tune)
	srv.AddVolume(1, store)
	ln, err := inj.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &Injected{Inj: inj, Srv: srv}, serve(t, srv, ln)
}

// TestChaosOverloadStormShedsBounded hammers a deliberately undersized
// scheduler (one worker, tiny admission limit, slow store) with far more
// offered load than it can absorb. The contract under the storm: shed
// completions come back fast (admission refusal is a queue check, not a
// disk wait), every request resolves one way or the other, the foreground
// backlog never exceeds the admission limit, and the server serves
// normally once the storm passes.
func TestChaosOverloadStormShedsBounded(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 1
	cfg.AdmitLimit = 4
	f, addr := startFaultServerStore(t, cfg, tuning{},
		&slowStore{BlockStore: NewMemStore(4 << 20), delay: time.Millisecond})
	ccfg := DefaultClientConfig()
	ccfg.KeepaliveInterval = 0
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		submitters = 8
		perG       = 50
	)
	var okN, shedN atomic.Int64
	var slowShed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < perG; i++ {
				t0 := time.Now()
				err := c.Read(1, int64((g*perG+i)%512)*4096, buf)
				switch {
				case err == nil:
					okN.Add(1)
				case errors.Is(err, ErrOverloaded):
					shedN.Add(1)
					// A shed must not have waited out the disk backlog:
					// with AdmitLimit 4 and a ~1ms device, anything beyond
					// a generous scheduling-noise budget means the refusal
					// queued behind real work.
					if time.Since(t0) > 2*time.Second {
						slowShed.Add(1)
					}
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if okN.Load() == 0 {
		t.Fatal("storm: nothing succeeded")
	}
	if shedN.Load() == 0 {
		t.Fatal("storm: nothing was shed — offered load should exceed one 1ms-per-op worker")
	}
	if n := slowShed.Load(); n > 0 {
		t.Fatalf("%d shed completions were slow — refusals queued instead of failing fast", n)
	}
	st := f.Srv.SchedStats()
	if st.Shed < shedN.Load() {
		t.Fatalf("server shed counter %d < client-observed %d", st.Shed, shedN.Load())
	}
	if st.FGQueued > cfg.AdmitLimit {
		t.Fatalf("foreground backlog %d exceeds admission limit %d", st.FGQueued, cfg.AdmitLimit)
	}
	// Calm after the storm: a plain request succeeds.
	if err := c.Read(1, 0, make([]byte, 512)); err != nil && !errors.Is(err, ErrOverloaded) {
		t.Fatalf("post-storm read: %v", err)
	}
}

// TestChaosForegroundLatencyUnderBackgroundSaturation runs destage churn
// and a background-class write flood beside a foreground reader and
// checks the QoS contract qualitatively: every foreground read completes,
// and its p99 stays within a loose CI-safe bound while the background
// lane is saturated — the lane split plus the per-tenant round-robin is
// what keeps one bulk stream from parking a point reader behind it.
func TestChaosForegroundLatencyUnderBackgroundSaturation(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 2
	cfg.CacheBlocks = 64 // small: fg reads miss, bg writes cross the high-watermark
	tune := tuning{dirtyHighWater: 16, destageInterval: time.Millisecond}
	_, addr := startFaultServerStore(t, cfg, tune,
		&slowStore{BlockStore: NewMemStore(16 << 20), delay: 200 * time.Microsecond})
	ccfg := DefaultClientConfig()
	ccfg.KeepaliveInterval = 0
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fg := c.OpenStream(StreamConfig{Credits: 4})
	bg := c.OpenStream(StreamConfig{Credits: 32, Background: true})

	stop := make(chan struct{})
	var bgOps atomic.Int64
	var bgWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		bgWG.Add(1)
		go func(i int) {
			defer bgWG.Done()
			payload := make([]byte, 64<<10)
			for off := int64(i) * (1 << 20); ; off += int64(len(payload)) {
				select {
				case <-stop:
					return
				default:
				}
				if off >= 12<<20 {
					off = int64(i) * (1 << 20)
				}
				if err := bg.Write(1, off, payload); err != nil && !errors.Is(err, ErrOverloaded) {
					return
				}
				bgOps.Add(1)
			}
		}(i)
	}

	// Let the background flood establish itself before measuring.
	time.Sleep(50 * time.Millisecond)
	const reads = 300
	lats := make([]time.Duration, 0, reads)
	buf := make([]byte, 8192)
	for i := 0; i < reads; i++ {
		t0 := time.Now()
		if err := fg.Read(1, int64(12<<20)+int64(i%256)*8192, buf); err != nil {
			if errors.Is(err, ErrOverloaded) {
				continue // admission can clip the fg too; QoS is about waits, not admission
			}
			t.Fatalf("fg read %d: %v", i, err)
		}
		lats = append(lats, time.Since(t0))
	}
	close(stop)
	bgWG.Wait()
	if bgOps.Load() == 0 {
		t.Fatal("background flood made no progress")
	}
	if len(lats) < reads/2 {
		t.Fatalf("only %d/%d foreground reads completed", len(lats), reads)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	// Loose CI bound: a ~200µs device read behind a 2-worker scheduler
	// must not see multi-hundred-ms foreground tails even with the
	// background lane saturated.
	if p99 > 500*time.Millisecond {
		t.Fatalf("foreground p99 %v under background saturation — lane priority not holding", p99)
	}
	t.Logf("fg p99 %v over %d reads while bg pushed %d writes", p99, len(lats), bgOps.Load())
	_ = fg.Close()
	_ = bg.Close()
}

// TestChaosBlackholeFailsAllStreams cuts the wire (silently — a blackhole,
// not a close) under a multi-stream client whose reconnect budget cannot
// succeed, and checks the fan-out contract: every pending on every stream
// resolves with ErrConnLost — exactly once each, no waiter hangs — and
// later submissions fail instead of wedging.
func TestChaosBlackholeFailsAllStreams(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 2
	f, addr := startFaultServer(t, cfg, 4<<20)
	ccfg := DefaultClientConfig()
	ccfg.KeepaliveInterval = 200 * time.Millisecond
	ccfg.DialTimeout = 150 * time.Millisecond
	ccfg.ReconnectBackoff = 20 * time.Millisecond
	ccfg.MaxReconnects = 2
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const nStreams = 3
	streams := make([]*Stream, nStreams)
	for i := range streams {
		streams[i] = c.OpenStream(StreamConfig{Credits: 4})
	}
	f.Inj.Blackhole(true)
	var handles []*Pending
	for _, st := range streams {
		for k := 0; k < 3; k++ {
			h, err := st.WriteAsync(1, int64(k)*8192, make([]byte, 4096))
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
	}
	var lost int
	for i, h := range handles {
		err := h.WaitTimeout(15 * time.Second)
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("stream pending %d: err=%v, want ErrConnLost", i, err)
		}
		lost++
	}
	if lost != len(handles) {
		t.Fatalf("resolved %d/%d pendings", lost, len(handles))
	}
	// The client has exhausted reconnects; new submissions on any stream
	// must fail fast, not hang.
	for i, st := range streams {
		done := make(chan error, 1)
		go func() { done <- st.Write(1, 0, make([]byte, 512)) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("stream %d: write succeeded into a blackhole", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stream %d: post-loss write hung", i)
		}
	}
}
