package netv3

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// claim plays the reader's part on a Resp frame: the request leaves the
// pending map, and whoever took it out owns it.
func claim(c *Client, h *Pending) {
	c.mu.Lock()
	delete(c.pending, h.id)
	c.mu.Unlock()
}

// dialHung dials the server that never answers, with nothing but the
// bounded waits under test able to complete a request.
func dialHung(t *testing.T) *Client {
	t.Helper()
	cfg := DefaultClientConfig()
	cfg.KeepaliveInterval = 0
	c, err := Dial(startHungServer(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBoundedWaitsShareOneTimer: a bounded wait is data on the handle and
// one timer per client, so ten thousand of them — on requests still in
// flight and on completed ones — allocate nothing beyond the handle each
// submit makes; and the one timer still does everything a timer per wait
// did.
func TestBoundedWaitsShareOneTimer(t *testing.T) {
	_, addr := startServer(t, ServerConfig{CacheBlocks: 64}, 1<<20)
	c, err := Dial(addr, DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, cacheBlockSize)
	if err := c.Write(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	wait := func(settle bool) func() {
		return func() {
			h, err := c.ReadAsync(1, 0, buf)
			if err != nil {
				t.Fatal(err)
			}
			if settle {
				if err := h.Wait(); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.WaitTimeout(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	inflight, completed := wait(false), wait(true)
	for i := 0; i < 64; i++ { // warm: pools and queues grown, the timer created
		inflight()
	}
	if n := testing.AllocsPerRun(5000, inflight); n > 1 {
		t.Errorf("submit + WaitTimeout on a read in flight: %.0f allocations, want at most 1 (the handle)", n)
	}
	if n := testing.AllocsPerRun(5000, completed); n > 1 {
		t.Errorf("submit + Wait + WaitTimeout on a completed read: %.0f allocations, want at most 1 (the handle)", n)
	}
	if st := c.Stats(); st.WaitTimeouts != 0 || st.Cancels != 0 || st.InFlight != 0 {
		t.Fatalf("after 10 000 bounded waits that all completed: %+v", st)
	}

	// An expiry does what it always did: ErrWaitTimeout returned and
	// published, the buffer detached, the token home, both counters moved.
	hung := dialHung(t)
	h, err := hung.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitTimeout(20 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("WaitTimeout on a hung server = %v, want ErrWaitTimeout", err)
	}
	if err := h.Wait(); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Wait after the expiry = %v, want ErrWaitTimeout", err)
	}
	hung.mu.Lock()
	detached := h.buf == nil && h.msg == nil
	hung.mu.Unlock()
	if !detached {
		t.Fatal("expired request still holds the caller's buffer")
	}
	if st := hung.Stats(); st.WaitTimeouts != 1 || st.Cancels != 1 || st.InFlight != 0 || len(hung.sem) != cap(hung.sem) {
		t.Fatalf("after one expiry: %+v, %d of %d tokens home; want 1 wait timeout, 1 cancel, nothing in flight, every token home",
			st, len(hung.sem), cap(hung.sem))
	}

	// A completion the reader has claimed beats an expiry that is already
	// due: the sweep cannot see the request, and its real status stands.
	h, err = hung.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	claim(hung, h)
	hung.expireAt(h, obs.Now()-1)
	hung.sweep()
	if h.Done() {
		t.Fatal("the sweep expired a request the reader had claimed")
	}
	hung.finish(h, nil)
	if err := h.WaitTimeout(0); err != nil {
		t.Fatalf("WaitTimeout after the racing completion = %v, want its real status, nil", err)
	}
	if st := hung.Stats(); st.WaitTimeouts != 1 || st.Cancels != 1 {
		t.Fatalf("the lost expiry was counted: %+v", st)
	}
}

// TestBoundedWaitsConcurrent: four goroutines wait on each handle, each
// its own way — a bound (far off, or about as long as the link takes, or
// shorter), a poll, a context — while Cancel races some rounds and the one
// timer sweeps. Every waiter of a handle sees one status, every kind of
// ending occurs, nothing hangs, and every token comes home. For -race
// -count=10.
func TestBoundedWaitsConcurrent(t *testing.T) {
	f, addr := startFaultServer(t, ServerConfig{CacheBlocks: 64}, 1<<20)
	c, err := Dial(addr, quietClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write(1, 0, make([]byte, cacheBlockSize)); err != nil {
		t.Fatal(err)
	}
	const link = 4 * time.Millisecond
	f.Inj.SetLatency(link, 0)
	first := []func(h *Pending) error{
		func(h *Pending) error { return h.Wait() },
		func(h *Pending) error { return h.WaitTimeout(link / 8) }, // expires
		func(h *Pending) error { return h.WaitTimeout(link) },     // races the completion
		func(h *Pending) error { h.Cancel(); return h.Wait() },
	}
	rest := []func(h *Pending) error{
		func(h *Pending) error { return h.WaitTimeout(time.Minute) },
		func(h *Pending) error { return h.WaitContext(context.Background()) },
		func(h *Pending) error {
			for !h.Done() {
				runtime.Gosched()
			}
			return h.Wait()
		},
	}
	endings := map[error]int{}
	var wg sync.WaitGroup
	for r := 0; r < 48; r++ {
		h, err := c.ReadAsync(1, 0, make([]byte, cacheBlockSize))
		if err != nil {
			t.Fatal(err)
		}
		waits := append([]func(h *Pending) error{first[r%len(first)]}, rest...)
		got := make([]error, len(waits))
		for w, wait := range waits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = wait(h)
			}()
		}
		wg.Wait()
		for w := range got {
			if got[w] != got[0] {
				t.Fatalf("round %d: waiters of one handle saw %v and %v", r, got[0], got[w])
			}
		}
		endings[got[0]]++
	}
	if endings[nil] == 0 || endings[ErrWaitTimeout] == 0 || endings[ErrCanceled] == 0 || len(endings) != 3 {
		t.Fatalf("endings %v: want completions, expiries and cancels, and nothing else", endings)
	}
	if st := c.Stats(); st.InFlight != 0 || len(c.sem) != cap(c.sem) ||
		st.WaitTimeouts != int64(endings[ErrWaitTimeout]) || st.Cancels != int64(endings[ErrWaitTimeout]+endings[ErrCanceled]) {
		t.Fatalf("after the storm: %+v, %d of %d tokens home, endings %v", st, len(c.sem), cap(c.sem), endings)
	}
}

// TestUnclaimedRequestKeepsItsDeadline: the reader holds a request claimed
// when its bounded wait expires — so the sweep passes it by — and then
// loses the connection and gives the request back. The deadline is still
// on the handle and unclaim arms for it, so the waiter is released by the
// next sweep instead of waiting out the replay unbounded.
func TestUnclaimedRequestKeepsItsDeadline(t *testing.T) {
	c := dialHung(t)
	h, err := c.ReadAsync(1, 0, make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	claim(c, h)
	c.expireAt(h, obs.Now()-1)
	c.mu.Lock()
	armed := c.armedFor
	c.mu.Unlock()
	if armed != 0 {
		t.Fatal("the timer was armed for a request that is not pending")
	}
	c.unclaim(h, 1) // same generation: put back, not resent
	if err := h.Wait(); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("unclaimed request past its deadline completed with %v, want ErrWaitTimeout", err)
	}
}

// TestClosedClientLeavesNoTimer: the expiry timer dies with the client,
// whichever way the client goes — Close, or reconnection giving up — and
// is never armed for a handle that has completed.
func TestClosedClientLeavesNoTimer(t *testing.T) {
	armedTimer := func(c *Client) (armed bool, active bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.armedFor != 0, c.expiryTimer != nil && c.expiryTimer.Stop()
	}
	for _, tc := range []struct {
		name string
		end  func(*Client)
		want error
	}{
		{"Close", func(c *Client) { c.Close() }, ErrClosed},
		{"connection lost", func(c *Client) {
			// The link dies and the one redial allowed finds nobody home.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln.Close()
			c.addr, c.cfg.MaxReconnects = ln.Addr().String(), 1
			c.KillConnForTest()
		}, ErrConnLost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialHung(t)
			h, err := c.ReadAsync(1, 0, make([]byte, 512))
			if err != nil {
				t.Fatal(err)
			}
			c.expireAt(h, obs.Now()+int64(time.Minute))
			c.mu.Lock()
			armed := c.armedFor != 0
			c.mu.Unlock()
			if !armed {
				t.Fatal("a bounded wait on a pending request armed nothing")
			}
			tc.end(c)
			if err := h.WaitTimeout(time.Minute); !errors.Is(err, tc.want) {
				t.Fatalf("pending request completed with %v, want %v", err, tc.want)
			}
			// The handle has completed: one more deadline on it arms nothing.
			c.expireAt(h, obs.Now()+int64(time.Second))
			if armed, active := armedTimer(c); armed || active {
				t.Fatalf("after %s: armedFor set = %v, timer still active = %v; want neither", tc.name, armed, active)
			}
		})
	}
}
