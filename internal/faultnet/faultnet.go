// Package faultnet is deterministic fault injection for the netv3/vvault
// stack: wrappers around net.Listener/net.Conn and BlockStore that
// reproduce the failure classes the paper's DSA layer exists to survive
// (Section 3: raw VI tears the connection down on any error, so DSA adds
// timeouts, retransmission and reconnection). The wrappers make those
// failures schedulable from a test instead of waiting for a sick
// interconnect:
//
//   - Blackhole: the peer hangs without closing — reads stall, writes are
//     silently swallowed. This is the failure ordinary error handling
//     cannot see; only deadline/keepalive machinery detects it.
//   - Latency / bandwidth cap: a slow link, for exercising timeouts and
//     cancellation under load.
//   - Write stall: writes block — a peer that stopped reading, its socket
//     buffer full — until released, closed or past the write deadline.
//     Each Conn also counts the writes that reach its socket, so tests can
//     assert how many frames one write carried.
//   - Reset: every tracked connection is severed at once (the classic
//     "connection closed" failure, for contrast with blackhole).
//   - Short / erroring store I/O: the backing disk fails or truncates
//     every Nth operation, counter-deterministic under concurrency.
//
// Determinism: explicit toggles are deterministic by construction; the
// only randomness is the optional latency jitter, drawn from a seeded
// rand.Rand, so a fixed seed and op order replay the same schedule.
package faultnet

import (
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// pollInterval is how often a blackholed Read rechecks the world. Coarse
// is fine: blackhole detection latencies under test are tens of
// milliseconds and up.
const pollInterval = time.Millisecond

// Injector owns one fault domain: every connection accepted through its
// Listener (or wrapped explicitly) shares the same fault state, so
// "blackhole the server" is one call. Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand // jitter; guarded by mu
	conns map[*Conn]struct{}

	blackhole bool
	stallWr   bool
	latency   time.Duration // added to every conn I/O
	jitter    time.Duration // max extra latency, drawn from rng
	bps       int64         // bandwidth cap in bytes/sec; 0 = unlimited
}

// New returns an injector whose randomized choices (latency jitter) are
// driven by seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// Blackhole turns the silent-peer fault on or off. While on, reads on
// every wrapped conn stall (honoring read deadlines) and writes succeed
// without delivering anything — the shape of a hung, not closed, peer.
func (i *Injector) Blackhole(on bool) {
	i.mu.Lock()
	i.blackhole = on
	i.mu.Unlock()
}

// blackholed reports the current blackhole state.
func (i *Injector) blackholed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.blackhole
}

// StallWrites turns the full-send-buffer fault on or off. While on, every
// Write on a wrapped conn blocks (honoring close and write deadlines)
// before reaching the socket; turning it off lets the blocked writes
// through.
func (i *Injector) StallWrites(on bool) {
	i.mu.Lock()
	i.stallWr = on
	i.mu.Unlock()
}

func (i *Injector) writesStalled() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stallWr
}

// SetLatency adds d (plus up to jitter, seed-deterministically) to every
// conn read and write.
func (i *Injector) SetLatency(d, jitter time.Duration) {
	i.mu.Lock()
	i.latency, i.jitter = d, jitter
	i.mu.Unlock()
}

// SetBandwidth caps the byte rate of every conn; 0 removes the cap.
func (i *Injector) SetBandwidth(bytesPerSec int64) {
	i.mu.Lock()
	i.bps = bytesPerSec
	i.mu.Unlock()
}

// ResetAll severs every tracked connection — the abrupt-close fault, as
// opposed to blackhole's silence. Returns how many were closed.
func (i *Injector) ResetAll() int {
	i.mu.Lock()
	conns := make([]*Conn, 0, len(i.conns))
	for c := range i.conns {
		conns = append(conns, c)
	}
	i.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// delay sleeps out the configured latency, jitter and bandwidth cost of
// an n-byte transfer.
func (i *Injector) delay(n int) {
	i.mu.Lock()
	d := i.latency
	if i.jitter > 0 {
		d += time.Duration(i.rng.Int63n(int64(i.jitter)))
	}
	if i.bps > 0 && n > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / i.bps)
	}
	i.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (i *Injector) track(c *Conn) {
	i.mu.Lock()
	i.conns[c] = struct{}{}
	i.mu.Unlock()
}

func (i *Injector) untrack(c *Conn) {
	i.mu.Lock()
	delete(i.conns, c)
	i.mu.Unlock()
}

// Listen is net.Listen("tcp", addr) with every accepted connection
// wrapped into the injector's fault domain.
func (i *Injector) Listen(addr string) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{Listener: ln, inj: i}, nil
}

// WrapConn places one established connection into the fault domain.
func (i *Injector) WrapConn(c net.Conn) *Conn {
	fc := newConn(c, i)
	i.track(fc)
	return fc
}

// Listener wraps accepted connections with the injector's faults.
type Listener struct {
	net.Listener
	inj *Injector
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.WrapConn(c), nil
}

// Conn is a net.Conn inside an injector's fault domain.
type Conn struct {
	net.Conn
	inj    *Injector
	mu     sync.Mutex // guards closed and the deadlines
	closed bool
	// rdDeadline and wrDeadline mirror the deadlines set on the inner
	// conn, so a Read stalled by blackhole (a Write by StallWrites) still
	// honors them — the contract the netv3 keepalive's deadline
	// enforcement and its client's bounded Close depend on.
	rdDeadline time.Time
	wrDeadline time.Time
	writes     atomic.Int64
}

func newConn(c net.Conn, i *Injector) *Conn {
	return &Conn{Conn: c, inj: i}
}

// stall blocks while faulted reports true. It returns early with
// net.ErrClosed if the conn is closed, or os.ErrDeadlineExceeded if the
// (mirrored) deadline passes — exactly what the inner conn would have
// returned had the bytes simply never moved.
func (c *Conn) stall(faulted func() bool, deadline *time.Time) error {
	for faulted() {
		c.mu.Lock()
		closed, dl := c.closed, *deadline
		c.mu.Unlock()
		if closed {
			return net.ErrClosed
		}
		if !dl.IsZero() && !time.Now().Before(dl) {
			return os.ErrDeadlineExceeded
		}
		time.Sleep(pollInterval)
	}
	return nil
}

// Read implements net.Conn. While blackholed it blocks (deadline- and
// close-aware) instead of delivering; note that a Read already blocked
// inside the kernel when the blackhole starts will still complete if
// bytes were in flight — the blackhole guarantees silence for I/O
// started after it engages.
func (c *Conn) Read(b []byte) (int, error) {
	if err := c.stall(c.inj.blackholed, &c.rdDeadline); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.inj.delay(n)
	}
	return n, err
}

// Write implements net.Conn. While blackholed the bytes are swallowed:
// the caller sees success, the peer sees nothing — the signature of a
// hung peer that TCP-level error handling cannot observe. While writes
// are stalled it blocks instead, like a socket whose send buffer is full.
func (c *Conn) Write(b []byte) (int, error) {
	if c.inj.blackholed() {
		return len(b), nil
	}
	if err := c.stall(c.inj.writesStalled, &c.wrDeadline); err != nil {
		return 0, err
	}
	c.inj.delay(len(b))
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// Writes returns how many Write calls reached the socket.
func (c *Conn) Writes() int64 { return c.writes.Load() }

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.inj.untrack(c)
	return c.Conn.Close()
}

// SetReadDeadline implements net.Conn, mirroring the deadline so
// blackholed reads honor it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn, mirroring the deadline so
// stalled writes honor it.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wrDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdDeadline, c.wrDeadline = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}
