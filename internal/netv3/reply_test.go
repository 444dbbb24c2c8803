package netv3

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

// tapConn records both directions of a client's socket: what the client
// wrote (out) and what it read (in), in order.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.in.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.out.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

// vacated are the frame bytes the protocol's retired fields held beyond
// the header's 4–15 (sequence and ack): a response's credits, a read's
// RDMA address and completion flags, a write's credit slot and flags, a
// disconnect's reason. They must travel as zeros.
var vacated = map[wire.MsgType][2]int{
	wire.TResp:       {25, 27},
	wire.TRead:       {40, 49},
	wire.TWrite:      {40, 45},
	wire.TDisconnect: {16, 17},
}

// splitFrames cuts a captured byte stream into its control frames, each
// checked to decode, to re-encode to the very bytes it arrived as, and to
// carry zeros in frame bytes 4–15 and its type's vacated bytes; it steps
// over the payload payload says follows each. Whatever does not split
// cleanly (a length that overruns the capture, trailing bytes) fails t.
func splitFrames(t *testing.T, dir string, b []byte, payload func(wire.Message) int) []wire.Message {
	t.Helper()
	var out []wire.Message
	for len(b) > 0 {
		if len(b) < wire.ControlSize {
			t.Fatalf("%s: %d trailing bytes are no frame", dir, len(b))
		}
		m, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: frame %d: %v", dir, len(out), err)
		}
		if re := wire.Marshal(m); !bytes.Equal(re, b[:wire.ControlSize]) {
			t.Fatalf("%s: %v frame has nonzero reserved bytes:\n got % x\nwant % x", dir, wire.TypeOf(m), b[:wire.ControlSize], re)
		}
		v := vacated[wire.TypeOf(m)]
		for _, r := range [][2]int{{4, wire.HeaderSize}, v} {
			if z := b[r[0]:r[1]]; !bytes.Equal(z, make([]byte, len(z))) {
				t.Fatalf("%s: %v frame bytes %d–%d are % x, want zeros", dir, wire.TypeOf(m), r[0], r[1]-1, z)
			}
		}
		n := wire.ControlSize + payload(m)
		if n > len(b) {
			t.Fatalf("%s: %v frame announces %d payload bytes, %d follow", dir, wire.TypeOf(m), n-wire.ControlSize, len(b)-wire.ControlSize)
		}
		out = append(out, m)
		b = b[n:]
	}
	return out
}

// TestEveryReplyIsOneResp is the traffic evidence for the protocol's one
// response shape. One live session, tapped in both directions, drives a
// request down every reply path the server has — a cached read hit and a
// read miss, an absorbed write and one written through past the dirty
// watermark, a flush, a shed, a read of an unknown volume, and a read and a
// write past the end of a volume — and idles long enough for a keepalive ping. Every frame
// the server sends after its ConnectResp is a Resp or a Pong; each Resp's
// Length is exactly the payload that follows it (a read's data, nothing for
// anything else); and in both directions every frame's reserved bytes are
// zero.
func TestEveryReplyIsOneResp(t *testing.T) {
	const blk = cacheBlockSize
	cfg := DefaultServerConfig()
	cfg.CacheBlocks = 64
	cfg.SchedWorkers = 1
	cfg.AdmitLimit = 1
	// A parked destager and a watermark of one block: the first write is
	// absorbed inline, the second destages on a worker before it absorbs.
	srv := newServer(cfg, tuning{destageInterval: time.Hour, dirtyHighWater: 1})
	srv.AddVolume(1, NewMemStore(64*blk))
	// Volume 2's reads park until the test opens the gate: one holds the
	// only worker, one waits in the queue, and the third is shed.
	gate := newGateStore(64*blk, 1<<30, true)
	srv.AddVolume(2, gate)
	addr := serve(t, srv, nil)

	var tap *tapConn
	ccfg := quietClientConfig()
	ccfg.KeepaliveInterval = 50 * time.Millisecond
	c, err := dial(addr, ccfg, func(conn net.Conn) net.Conn {
		tap = &tapConn{Conn: conn}
		return tap
	})
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		what   string
		status wire.Status
		length uint32
	}
	wants := map[uint64]want{}
	expect := func(what string, h *Pending, err error, st wire.Status, length uint32) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: submit: %v", what, err)
		}
		err = h.WaitTimeout(5 * time.Second)
		switch {
		case st == wire.StatusOK && err != nil,
			st == wire.StatusEOverloaded && !errors.Is(err, ErrOverloaded),
			st != wire.StatusOK && st != wire.StatusEOverloaded && (err == nil || err.Error() != st.Err().Error()):
			t.Fatalf("%s: completed with %v, want status %v", what, err, st)
		}
		wants[h.id] = want{what, st, length}
	}
	data := bytes.Repeat([]byte{0x5A}, blk)
	buf := make([]byte, blk)

	h, err := c.WriteAsync(1, 0, data)
	expect("absorbed write", h, err, wire.StatusOK, 0)
	h, err = c.WriteAsync(1, blk, data)
	expect("pressured write", h, err, wire.StatusOK, 0)
	if n := srv.DiskStats().PressuredWrites; n != 1 {
		t.Fatalf("pressured writes = %d, want 1", n)
	}
	hits0, misses0 := srv.CacheStats()
	h, err = c.ReadAsync(1, 0, buf)
	expect("cached read hit", h, err, wire.StatusOK, blk)
	if hits, misses := srv.CacheStats(); hits == hits0 || misses != misses0 {
		t.Fatalf("the hit read was no hit: hits %d→%d misses %d→%d", hits0, hits, misses0, misses)
	}
	h, err = c.ReadAsync(1, 32*blk, buf)
	expect("read miss", h, err, wire.StatusOK, blk)
	if _, misses := srv.CacheStats(); misses == misses0 {
		t.Fatal("the miss read was no miss")
	}
	h, err = c.FlushAsync(1)
	expect("flush", h, err, wire.StatusOK, 0)
	h, err = c.ReadAsync(99, 0, buf)
	expect("unknown volume", h, err, wire.StatusENoVolume, 0)
	h, err = c.ReadAsync(1, 64*blk, buf)
	expect("out-of-range read", h, err, wire.StatusEInval, 0)
	h, err = c.WriteAsync(1, 64*blk, data)
	expect("out-of-range write", h, err, wire.StatusEInval, 0)

	held, err := c.ReadAsync(2, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first volume-2 read to hold the worker", func() bool { return gate.inflight.Load() == 1 })
	queued, err := c.ReadAsync(2, 10*blk, make([]byte, blk))
	if err != nil {
		t.Fatal(err)
	}
	h, err = c.ReadAsync(2, 20*blk, make([]byte, blk))
	expect("shed", h, err, wire.StatusEOverloaded, 0)
	gate.once.Do(func() { close(gate.open) })
	expect("held read", held, nil, wire.StatusOK, blk)
	expect("queued read", queued, nil, wire.StatusOK, blk)

	waitFor(t, "a keepalive ping answered", func() bool { return c.kaPings.Load() > 0 && c.kaPingAt.Load() == 0 })
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("%d reconnects: the capture spans more than one session", n)
	}
	c.Close()

	tap.mu.Lock()
	out, in := tap.out.Bytes(), tap.in.Bytes()
	tap.mu.Unlock()
	sent := splitFrames(t, "client→server", out, func(m wire.Message) int {
		if w, ok := m.(*wire.Write); ok {
			return int(w.Length)
		}
		return 0
	})
	if _, ok := sent[0].(*wire.Connect); !ok {
		t.Fatalf("client's first frame is %v, want Connect", wire.TypeOf(sent[0]))
	}
	got := splitFrames(t, "server→client", in, func(m wire.Message) int {
		if r, ok := m.(*wire.Resp); ok {
			return int(r.Length)
		}
		return 0
	})
	if _, ok := got[0].(*wire.ConnectResp); !ok {
		t.Fatalf("server's first frame is %v, want ConnectResp", wire.TypeOf(got[0]))
	}
	pongs := 0
	for _, m := range got[1:] {
		switch r := m.(type) {
		case *wire.Pong:
			pongs++
		case *wire.Resp:
			w, ok := wants[r.ReqID]
			if !ok {
				t.Fatalf("Resp for request %d, which was never sent or answered twice", r.ReqID)
			}
			delete(wants, r.ReqID)
			if r.Status != w.status || r.Length != w.length {
				t.Fatalf("%s: Resp status %v length %d, want %v and %d", w.what, r.Status, r.Length, w.status, w.length)
			}
			if (r.RetryAfterMS != 0) != (w.status == wire.StatusEOverloaded) {
				t.Fatalf("%s: retry hint %d ms", w.what, r.RetryAfterMS)
			}
		default:
			t.Fatalf("server sent a %v after the handshake; only Resp and Pong are replies", wire.TypeOf(m))
		}
	}
	for _, w := range wants {
		t.Errorf("%s: no Resp on the wire", w.what)
	}
	if pongs == 0 {
		t.Fatal("no Pong on the wire")
	}
}

// TestOversizedTransferFailsFast: a write longer than the server's
// MaxXfer could never be staged — the server closes the session on it —
// so replaying it after each reconnect would loop forever and wedge every
// request behind it. The client refuses it, and a read past the bound
// alike, at submission: at once, without a reconnect, and with the
// session fine for the next request.
func TestOversizedTransferFailsFast(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxXfer = 64 << 10
	_, addr := startServer(t, cfg, 1<<20)
	c, err := Dial(addr, quietClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 128<<10)
	start := time.Now()
	h, err := c.WriteAsync(1, 0, big)
	if err == nil {
		err = h.WaitTimeout(2 * time.Second)
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("128 KB write against a 64 KB MaxXfer: %v, want ErrTooLarge", err)
	}
	if _, err := c.ReadAsync(1, 0, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("128 KB read against a 64 KB MaxXfer: %v, want ErrTooLarge", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("refusals took %v", d)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("Reconnects() = %d, want 0", n)
	}
	if err := c.Write(1, 0, bytes.Repeat([]byte{7}, 8192)); err != nil {
		t.Fatalf("8 KB write after the refusal: %v", err)
	}
	if got := c.Stats().InFlight; got != 0 {
		t.Fatalf("%d requests in flight after the refusals", got)
	}
}
