package netv3

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// holdConn is a server-side connection whose reads can be held: while
// held, a read keeps what it got from the socket until the hold is lifted
// or the connection is closed (which drops it). Held bytes are frames a
// session loop has not got round to yet.
type holdConn struct {
	net.Conn
	mu      sync.Mutex
	cond    *sync.Cond
	held    bool
	closed  bool
	pending int // bytes a held read is sitting on
}

func (c *holdConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.held && !c.closed {
		c.pending = n
		c.cond.Wait()
	}
	c.pending = 0
	if c.closed {
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *holdConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return c.Conn.Close()
}

func (c *holdConn) hold(on bool) {
	c.mu.Lock()
	c.held = on
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *holdConn) heldBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// holdListener wraps every accepted connection in a holdConn and hands it
// to the test.
type holdListener struct {
	net.Listener
	accepted chan *holdConn
}

func (l *holdListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hc := &holdConn{Conn: conn}
	hc.cond = sync.NewCond(&hc.mu)
	l.accepted <- hc
	return hc, nil
}

// TestStaleSessionFenced is ROADMAP item 1a's lost update, staged
// deterministically. The server's old session holds a write it has read
// off the socket but not yet decoded when the client gives the connection
// up. The client reconnects, its replay of that write completes on the new
// session, and it overwrites the block there; then the old session is let
// go. Without the fence the old session decodes its stale copy and applies
// it over the newer write, and the read returns the old bytes. With it, the
// new session is admitted only once the old one has been quiesced, which
// drops what it held.
func TestStaleSessionFenced(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 64
	srv := newServer(cfg, tuning{})
	srv.AddVolume(1, NewMemStore(1<<20))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hl := &holdListener{Listener: ln, accepted: make(chan *holdConn, 8)}
	c, err := Dial(serve(t, srv, hl), quietClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	old := <-hl.accepted
	older := bytes.Repeat([]byte{0xA1}, cacheBlockSize)
	newer := bytes.Repeat([]byte{0xB2}, cacheBlockSize)

	old.hold(true)
	ha, err := c.WriteAsync(1, 0, older)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the old session to hold the write", func() bool { return old.heldBytes() > 0 })
	c.KillConnForTest()
	if err := ha.WaitTimeout(5 * time.Second); err != nil {
		t.Fatalf("replayed write: %v", err)
	}
	if err := c.Write(1, 0, newer); err != nil {
		t.Fatal(err)
	}
	old.hold(false)
	waitFor(t, "the old session to end", func() bool { return srv.SessionsActive() == 1 })
	got := make([]byte, cacheBlockSize)
	if err := c.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newer) {
		t.Fatalf("block 0 reads %#x: the old session's stale write landed over the newer one", got[0])
	}
}

// parkFirstWrite is a MemStore whose first WriteAt parks until released.
type parkFirstWrite struct {
	*MemStore
	once             sync.Once
	parked, released chan struct{}
}

func (s *parkFirstWrite) WriteAt(b []byte, off int64) error {
	s.once.Do(func() {
		close(s.parked)
		<-s.released
	})
	return s.MemStore.WriteAt(b, off)
}

// TestFenceWaitsOutTasks: the old session's write is not held in its loop
// but running, a scheduler task parked in the store. The new incarnation
// is admitted by the fence at once, and answered only when that task has
// finished: until then the client's replay and its next write wait, and
// afterwards both land after the stale copy.
func TestFenceWaitsOutTasks(t *testing.T) {
	store := &parkFirstWrite{MemStore: NewMemStore(1 << 20), parked: make(chan struct{}), released: make(chan struct{})}
	cfg := DefaultServerConfig()
	cfg.SchedWorkers = 4
	srv, addr := startTunedServer(t, cfg, tuning{}, store)
	c, err := Dial(addr, quietClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	older := bytes.Repeat([]byte{0xA1}, 512)
	newer := bytes.Repeat([]byte{0xB2}, 512)
	ha, err := c.WriteAsync(1, 0, older)
	if err != nil {
		t.Fatal(err)
	}
	<-store.parked
	c.KillConnForTest()
	hb, err := c.WriteAsync(1, 0, newer)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the fence to admit the second incarnation", func() bool {
		srv.fenceMu.Lock()
		defer srv.fenceMu.Unlock()
		return srv.fence.clients[c.core.id].top == 2
	})
	if ha.Done() || hb.Done() {
		t.Fatal("the new session served a frame while the old one still had a task running")
	}
	close(store.released)
	for _, h := range []*Pending{ha, hb} {
		if err := h.WaitTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, 512)
	if err := c.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newer) {
		t.Fatalf("block 0 reads %#x: the stale task's write landed last", got[0])
	}
}

// TestFenceAdmission pins the fence's rules on the plain type: incarnations
// of one id are admitted upward only while a session of it lives, each
// admission hands back every older live session, ids are independent, 0 is
// never fenced, and an id is forgotten once none of its sessions lives.
func TestFenceAdmission(t *testing.T) {
	var f fence[int]
	admit := func(id, inc uint64, s int, wantStale []int, wantOK bool) {
		t.Helper()
		stale, ok := f.admit(id, inc, s)
		if ok != wantOK || len(stale) != len(wantStale) {
			t.Fatalf("admit(%d, %d): stale %v ok %v, want %v %v", id, inc, stale, ok, wantStale, wantOK)
		}
		for i := range stale {
			if stale[i] != wantStale[i] {
				t.Fatalf("admit(%d, %d): stale %v, want %v", id, inc, stale, wantStale)
			}
		}
	}
	admit(7, 1, 1, nil, true)
	admit(7, 3, 2, []int{1}, true)
	admit(7, 2, 3, nil, false) // late and lower
	admit(7, 3, 4, nil, false) // a repeat
	admit(9, 1, 5, nil, true)  // another client
	admit(0, 1, 6, nil, true)  // anonymous
	admit(0, 1, 7, nil, true)
	f.leave(7, 1)
	admit(7, 4, 8, []int{2}, true)
	f.leave(7, 2)
	f.leave(7, 8)
	if _, ok := f.clients[7]; ok {
		t.Fatal("an id with no live session is still remembered")
	}
	admit(7, 1, 9, nil, true)
}
