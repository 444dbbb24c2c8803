package vvault

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/netv3"
)

// delayStore adds fixed device latency to a MemStore, for overload tests
// that need the backend's scheduler to saturate.
type delayStore struct {
	*netv3.MemStore
	delay time.Duration
}

func (d *delayStore) ReadAt(b []byte, off int64) error {
	time.Sleep(d.delay)
	return d.MemStore.ReadAt(b, off)
}

func (d *delayStore) WriteAt(b []byte, off int64) error {
	time.Sleep(d.delay)
	return d.MemStore.WriteAt(b, off)
}

// TestVaultRidesStreams checks the vault rides streams end to end: every
// replica rides a foreground data stream plus a background resync stream,
// I/O works, and a replica that dies and returns gets fresh streams on its
// new client.
func TestVaultRidesStreams(t *testing.T) {
	member := int64(1 << 20)
	scfg := netv3.DefaultServerConfig()
	scfg.SchedWorkers = 2
	store0 := netv3.NewMemStore(member)
	srv0, addr0 := startBackendCfg(t, store0, "127.0.0.1:0", scfg)
	_, addr1 := startBackendCfg(t, netv3.NewMemStore(member), "127.0.0.1:0", scfg)

	v, err := Open([]string{addr0, addr1}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	for i, s := range v.Status() {
		if s.DataStream == 0 {
			t.Fatalf("backend %d: no data stream (status %+v)", i, s)
		}
		if s.ResyncStream == 0 {
			t.Fatalf("backend %d: no resync stream", i)
		}
		if s.StreamCredits != 48 {
			t.Fatalf("backend %d: stream credits = %d, want 48", i, s.StreamCredits)
		}
	}

	data := pattern(8192, 1, 16384)
	if err := v.Write(8192, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.Read(8192, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("readback mismatch at %d", i)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill replica 0, write while degraded, bring it back: recovery must
	// attach fresh streams on the new client and resync on the background
	// one.
	srv0.Close()
	waitForState(t, v, 0, "down", 5*time.Second)
	if err := v.Write(0, pattern(0, 2, 8192)); err != nil {
		t.Fatal(err)
	}
	startBackendCfg(t, store0, addr0, scfg)
	waitForState(t, v, 0, "up", 10*time.Second)
	s := v.Status()[0]
	if s.DataStream == 0 || s.ResyncStream == 0 {
		t.Fatalf("recovered backend has no streams: %+v", s)
	}
}

// TestVaultOverloadNotFatal hammers a deliberately undersized backend
// scheduler through the vault and checks the health contract: admission
// sheds surface to the caller as ErrOverloaded but never count toward
// the trip threshold — a backend asking for backoff is healthy, and
// tripping it would turn transient load into an outage.
func TestVaultOverloadNotFatal(t *testing.T) {
	member := int64(4 << 20)
	scfg := netv3.DefaultServerConfig()
	scfg.SchedWorkers = 1
	scfg.AdmitLimit = 1
	startBackendStore := &delayStore{MemStore: netv3.NewMemStore(member), delay: time.Millisecond}
	_, addr := startBackendCfg(t, startBackendStore, "127.0.0.1:0", scfg)

	cfg := testConfig(ModeStripe, member)
	// Trip fast if sheds were (wrongly) counted.
	v, err := open([]string{addr}, cfg, tuning{errorThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	var sheds, ok atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < 40; i++ {
				err := v.Read(int64((g*40+i)%256)*4096, buf)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, netv3.ErrOverloaded):
					sheds.Add(1)
				default:
					t.Errorf("read %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sheds.Load() == 0 {
		t.Skip("offered load never tripped admission control on this machine")
	}
	s := v.Status()[0]
	if s.State != "up" {
		t.Fatalf("backend state %q after %d sheds — overload must not trip", s.State, sheds.Load())
	}
	if s.Trips != 0 {
		t.Fatalf("backend tripped %d times under overload", s.Trips)
	}
	// And the path still serves once load subsides.
	time.Sleep(50 * time.Millisecond)
	if err := v.Read(0, make([]byte, 4096)); err != nil && !errors.Is(err, netv3.ErrOverloaded) {
		t.Fatalf("post-storm read: %v", err)
	}
}
