package netv3

import (
	"runtime"
	"testing"

	"github.com/v3storage/v3/internal/obs"
)

// Submit from one goroutine, Wait from another, metrics enabled.
func TestCrossGoroutineWaitTrace(t *testing.T) {
	_, addr := startServer(t, ServerConfig{CacheBlocks: 64}, 1<<20)
	ccfg := DefaultClientConfig()
	ccfg.Metrics = obs.New()
	c, err := Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hs := make(chan *Pending, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h := range hs {
			if err := h.Wait(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		h, err := c.WriteAsync(1, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		hs <- h
	}
	close(hs)
	<-done
}

// MaxTransfer is read with no lock while reconnects install new
// connections underneath it: the bound is negotiated once, at Dial, and no
// reconnect can change it (one that reaches another server process ends
// the session). Run under -race.
func TestMaxTransferStableAcrossReconnects(t *testing.T) {
	const maxXfer = 256 << 10
	cfg := DefaultServerConfig()
	cfg.MaxXfer = maxXfer
	_, addr := startServer(t, cfg, 1<<20)
	c, err := Dial(addr, quietClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	wrong := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				wrong <- n
				return
			default:
			}
			if c.MaxTransfer() != maxXfer {
				n++
			}
			runtime.Gosched()
		}
	}()
	const kills = 20
	buf := make([]byte, 512)
	for i := 0; i < kills; i++ {
		c.KillConnForTest()
		if err := c.Read(1, 0, buf); err != nil {
			t.Fatalf("read across forced reconnect %d: %v", i, err)
		}
	}
	close(stop)
	if n := <-wrong; n != 0 {
		t.Fatalf("MaxTransfer read something other than %d %d times", maxXfer, n)
	}
	if n := c.Reconnects(); n != kills {
		t.Fatalf("Reconnects = %d, want %d", n, kills)
	}
}
