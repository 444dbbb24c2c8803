package netv3

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestCoreIsSocketFree pins what makes the core checkable: its file
// imports no lock, clock, socket or process package and starts no
// goroutine, so every transition is plain code on plain data.
func TestCoreIsSocketFree(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "sync", "sync/atomic", "time", "net", "os":
			t.Errorf("core.go imports %q", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			t.Errorf("core.go starts a goroutine at offset %d", g.Pos())
		}
		return true
	})
}

// newTestCore is a core whose first connection, to the server of boot
// nonce 7, is live.
func newTestCore(t *testing.T) *clientCore {
	t.Helper()
	c := &clientCore{id: 1, pending: map[uint64]*Pending{}}
	if _, _, ok := c.redial(false); !ok {
		t.Fatal("a new core refused its first dial")
	}
	if _, _, ok := c.connected(7 << 32); !ok || c.gen != 1 {
		t.Fatal("a new core refused its first connection")
	}
	return c
}

func submitRead(t *testing.T, c *clientCore) *Pending {
	t.Helper()
	p := &Pending{buf: make([]byte, 8)}
	if err := c.submit(p, opRead, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCoreRestoreResendsAfterReplay is the lost-request regression, driven
// transition by transition: the reader claims a read on generation 1, the
// writer's failure drives recovery to completion first — its replay runs
// without the claimed request — and then the reader's payload read fails
// and it gives the request back. The core must ask for a resend on the new
// connection, since nothing else would ever send it. Given back while the
// recovery is still dialing, or on the live generation, it is not resent
// here: the replay will carry it, or its connection is alive.
func TestCoreRestoreResendsAfterReplay(t *testing.T) {
	c := newTestCore(t)
	p := submitRead(t, c)
	if c.claim(p.id, 1) != p {
		t.Fatal("claim on the live generation missed")
	}
	if !c.broken(1) || c.broken(1) {
		t.Fatal("broken: want exactly the first report to start recovery")
	}
	if _, _, ok := c.redial(false); !ok {
		t.Fatal("redial refused")
	}
	replay, _, ok := c.connected(7 << 32)
	if !ok || len(replay) != 0 {
		t.Fatalf("connected: ok %v, replay %d requests; want the claimed one left out", ok, len(replay))
	}
	if resend, ok, _ := c.restore(p, 1); !resend || !ok {
		t.Fatalf("restore after the replay: resend %v ok %v, want a resend", resend, ok)
	}
	if c.pending[p.id] != p {
		t.Fatal("the restored request is not pending")
	}

	// Given back during a recovery: the replay will carry it.
	q := submitRead(t, c)
	c.claim(q.id, 2)
	c.broken(2)
	if resend, ok, _ := c.restore(q, 2); resend || !ok {
		t.Fatalf("restore during recovery: resend %v ok %v", resend, ok)
	}
	c.redial(false)
	if replay, _, _ := c.connected(7 << 32); len(replay) != 2 || replay[0] != p || replay[1] != q {
		t.Fatalf("replay %v, want both requests in submission order", replay)
	}
}

// TestCoreStaleGenerationClaimsNothing: a response that arrives on a
// connection the client has replaced answers nothing — its request was
// replayed, and the replay's response completes it exactly once.
func TestCoreStaleGenerationClaimsNothing(t *testing.T) {
	c := newTestCore(t)
	p := submitRead(t, c)
	c.broken(1)
	if c.claim(p.id, 1) != p {
		t.Fatal("while the recovery dials, the dead generation's buffered responses still answer")
	}
	c.restore(p, 1)
	c.redial(false)
	c.connected(7 << 32)
	if c.claim(p.id, 1) != nil {
		t.Fatal("a replaced generation claimed a replayed request")
	}
	if c.claim(p.id, 2) != p {
		t.Fatal("the live generation's response did not claim the request")
	}
}

// TestCoreNewBootFailsAll: a reconnect that meets another server process
// closes the client and returns every pending request as lost, and
// nothing is submitted after.
func TestCoreNewBootFailsAll(t *testing.T) {
	c := newTestCore(t)
	p := submitRead(t, c)
	submitRead(t, c)
	c.broken(1)
	c.redial(false)
	replay, lost, ok := c.connected(8 << 32)
	if ok || len(replay) != 0 || len(lost) != 2 {
		t.Fatalf("connected to a new boot: ok %v replay %d lost %d; want 0 and both", ok, len(replay), len(lost))
	}
	if len(c.pending) != 0 || c.phase != phaseClosed {
		t.Fatal("the core kept requests or stayed open after a new boot")
	}
	if err := c.submit(&Pending{}, opFlush, 0, 1, 0); err != ErrClosed {
		t.Fatalf("submit after a new boot: %v, want ErrClosed", err)
	}
	if _, ok, _ := c.restore(p, 1); ok {
		t.Fatal("restore on a closed core kept the request")
	}
}

// TestCoreRedialBudget: a recovery whose failures exhaust the budget
// closes the client with everything pending lost; a closed client's
// recovery ends without losing anything twice; each dial is a new
// incarnation.
func TestCoreRedialBudget(t *testing.T) {
	c := newTestCore(t)
	submitRead(t, c)
	c.broken(1)
	inc1, _, _ := c.redial(false)
	inc2, _, _ := c.redial(false)
	if inc1 != 2 || inc2 != 3 {
		t.Fatalf("incarnations %d, %d; want 2 and 3 after the first dial's 1", inc1, inc2)
	}
	if _, lost, ok := c.redial(true); ok || len(lost) != 1 {
		t.Fatalf("exhausted redial: ok %v lost %d", ok, len(lost))
	}
	if _, lost, ok := c.redial(false); ok || len(lost) != 0 {
		t.Fatalf("redial on a closed core: ok %v lost %d", ok, len(lost))
	}
	if _, ok := c.shutdown(); ok {
		t.Fatal("a second shutdown reported closing")
	}
}

// TestCoreDeadlines: a deadline arms the timer once for the earliest
// instant, a sweep expires exactly the requests due and re-arms for the
// next, a claimed request is passed by and armed for when it is given
// back, and a closed core is disarmed.
func TestCoreDeadlines(t *testing.T) {
	c := newTestCore(t)
	p, q, r := submitRead(t, c), submitRead(t, c), submitRead(t, c)
	if at := c.expire(p, 100); at != 100 {
		t.Fatalf("first deadline armed at %d, want 100", at)
	}
	if at := c.expire(q, 200); at != 0 {
		t.Fatal("a later deadline re-armed the timer")
	}
	c.claim(r.id, 1)
	if at := c.expire(r, 50); at != 0 {
		t.Fatal("a claimed request armed the timer")
	}
	expired, next := c.sweep(150)
	if len(expired) != 1 || expired[0] != p || next != 200 {
		t.Fatalf("sweep at 150: expired %v, re-armed at %d; want p and 200", expired, next)
	}
	if p.buf != nil || p.msg != nil {
		t.Fatal("an expired request kept its buffers")
	}
	if _, _, at := c.restore(r, 1); at != 50 {
		t.Fatalf("restore armed at %d, want the claimed request's deadline 50", at)
	}
	c.shutdown()
	if c.armedFor != 0 {
		t.Fatal("a closed core stays armed")
	}
}

// TestCoreCloseStream detaches exactly the closing stream's requests, and
// a request wraps to a narrowed id width (the explorer's seam).
func TestCoreCloseStream(t *testing.T) {
	c := newTestCore(t)
	st, other := &Stream{}, &Stream{}
	a := &Pending{st: st}
	b := &Pending{st: other}
	c.submit(a, opFlush, 1, 1, 0)
	c.submit(b, opFlush, 2, 1, 0)
	if got := c.closeStream(st); len(got) != 1 || got[0] != a || c.pending[b.id] != b {
		t.Fatalf("closeStream detached %v", got)
	}
	if c.openStream() != 1 || c.openStream() != 2 {
		t.Fatal("stream numbers do not count from 1")
	}
	c.idShift = 61
	for i := 0; i < 6; i++ {
		c.submit(&Pending{}, opFlush, 0, 1, 0)
	}
	if c.nextReq != 8 || len(c.pending) != 7 {
		t.Fatalf("nextReq %d, table %d", c.nextReq, len(c.pending))
	}
	w := &Pending{}
	c.submit(w, opFlush, 0, 1, 0)
	if w.id != 1 {
		t.Fatalf("the ninth request on 3-bit ids got id %d, want the wrap to 1", w.id)
	}
}
