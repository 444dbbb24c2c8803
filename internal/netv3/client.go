package netv3

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// ClientConfig tunes a netv3 client.
type ClientConfig struct {
	// WantCredits asks the server for a flow-control window (0 accepts
	// the server's default).
	WantCredits int
	// After a connection failure the client redials up to MaxReconnects
	// times (default 8) before giving the session up, waiting
	// ReconnectBackoff (default 100 ms) after the first failed attempt and
	// twice as long after each further one.
	ReconnectBackoff time.Duration
	MaxReconnects    int
	// DialTimeout bounds each dial attempt, including the handshake: a
	// peer that accepts the TCP connection but never answers the Connect
	// (blackholed, wedged) fails the attempt within this bound instead of
	// hanging the reconnection loop.
	DialTimeout time.Duration
	// KeepaliveInterval arms the idle-link hung-peer detector. When no
	// frame has arrived for a full interval, the client sends a TPing and
	// sets a read deadline one more interval out; a peer that stays
	// silent — socket open, nothing moving — fails the reader within
	// 2×interval and enters reconnection exactly like a closed peer.
	// While traffic flows the detector costs one atomic store per inbound
	// frame. 0 disables.
	KeepaliveInterval time.Duration
	// Metrics, when non-nil, turns tracing on: one request in traceSample
	// carries a trace id, the server answers it with its span block, and
	// the submit → doorbell → response → delivery → wakeup timestamps
	// fold into the per-stage histograms of MergedStageDefs on this
	// registry, beside the failure-path counters (cancels, deadline
	// expiries, hung-peer detections) and the keepalive RTT histogram. Nil
	// is the untraced fast path — capture sites cost one branch.
	Metrics *obs.Registry
}

// DefaultClientConfig returns production defaults.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		ReconnectBackoff:  100 * time.Millisecond,
		MaxReconnects:     8,
		DialTimeout:       5 * time.Second,
		KeepaliveInterval: 2 * time.Second,
	}
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("netv3: client closed")

// ErrWaitTimeout is the completion status of a request whose bounded
// wait expired: the request is canceled (buffer detached, credit tokens
// returned) and this error is published on the handle.
var ErrWaitTimeout = errors.New("netv3: wait timed out")

// ErrCanceled is the completion status of a request canceled via
// Pending.Cancel.
var ErrCanceled = errors.New("netv3: request canceled")

// ErrConnLost is the completion status of requests that were outstanding
// when the connection broke and could not be replayed (reconnection
// exhausted its attempts). Callers such as cluster layers use it to tell
// a dead backend from an I/O error the backend itself reported.
var ErrConnLost = errors.New("netv3: connection lost and reconnection failed")

// Pending is one in-flight request and its completion handle — the TCP
// counterpart of the cDSA API's async calls plus Poll/Wait
// (internal/core/api.go calls 5, 6, 9, 10).
//
// Completion is the cDSA shape: a word the completing side sets and the
// caller polls (Done), and a wake-up asked for only by a waiter that finds
// nothing to poll (Wait parks on a primitive embedded in the handle). A
// submit therefore allocates the handle and nothing else — no channel, and
// no timer for a bounded wait either: a deadline is data on the handle,
// enforced by the client's one expiry timer (see Client.expireAt).
type Pending struct {
	st   *Stream      // issuing stream; its tokens are held until completion (see Stream.take)
	id   uint64       // request id; the key in the client's pending map
	msg  wire.Message // the request frame, for replay too; points at rd, wr or fl
	body []byte       // write payload (replay) — nil for reads
	buf  []byte       // read destination
	err  error        // completion status; valid once completed reads true

	// finish stores completed, then releases parked (Add(1) at submit, one
	// Done() at finish). Any number of goroutines may park, any number of
	// times: the counter never rises again.
	completed atomic.Bool
	parked    sync.WaitGroup

	// expiry is the obs.Now() instant at which the request is given up on
	// behalf of its bounded waiters — the earliest deadline any WaitTimeout
	// registered — or 0 when none has. Guarded by Client.mu.
	expiry int64

	// The request message lives in the handle (one of the three, by its
	// op), so the handle is a submit's only allocation.
	rd wire.Read
	wr wire.Write
	fl wire.Flush

	// Stage-trace timestamps (obs.Now nanos), populated only when the
	// client has a metrics registry: t0 submit entry, t1 bookkeeping done,
	// t2 frame and payload queued for the connection's writer (the
	// doorbell rung), t3 response frame decoded, t4 completion published.
	// The wakeup stamp is taken by whichever Wait/Done call first observes
	// the completion; recorded makes the trace fold into the histograms
	// exactly once.
	t0, t1, t2, t3, t4 int64
	recorded           atomic.Bool

	// span is the server-side stage block echoed in the response of a
	// traced request (zeros against a pre-trace server). Written by the
	// reader before the completion publishes, so it is stable once
	// completed reads true.
	span wire.SrvSpan
}

// ServerSpan returns the server-side stage decomposition the response
// carried back: the wait in the scheduler's queue and the service time of
// the worker that ran the request — its CPU plus any store call it made (a
// miss fill, a write-through); there is no finer split below the cache.
// All zeros when the request was untraced (see Traced), the server
// predates FeatureTrace, or the request failed before a response arrived.
// Valid once the request completes.
func (h *Pending) ServerSpan() wire.SrvSpan { return h.span }

// finishTrace folds the request's stage trace into the client's
// histograms, once, from the first waiter to observe completion. A
// request without a full trace (metrics disabled, or failed before a
// response arrived) records nothing.
func (h *Pending) finishTrace() {
	c := h.st.c
	if c.om == nil || h.t0 == 0 || h.t3 == 0 {
		return
	}
	if !h.recorded.CompareAndSwap(false, true) {
		return
	}
	c.om.recordTrace(h.t0, h.t1, h.t2, h.t3, h.t4, obs.Now(), h.span)
}

// Done reports without blocking whether the request has completed — the
// polling primitive.
func (h *Pending) Done() bool {
	if !h.completed.Load() {
		return false
	}
	h.finishTrace()
	return true
}

// Wait blocks until the request completes and returns its status. It may
// be called any number of times, from any goroutine.
func (h *Pending) Wait() error {
	h.parked.Wait() // one atomic load once the request has completed
	h.finishTrace()
	return h.err
}

// WaitTimeout blocks until the request completes or d elapses. An
// expired wait CANCELS the request: the buffers passed to
// ReadAsync/WriteAsync are detached (the caller owns them again the
// moment this returns) and the credit tokens go back to their windows
// immediately — an abandoned handle can no longer pin a token until the
// server deigns to answer. ErrWaitTimeout is both the return value and
// the handle's published completion status, so later waiters see it too.
// If the completion races the expiry, the request's real status wins and
// is returned instead. The wait costs no timer: the deadline is registered
// on the handle and the client's one expiry timer enforces it, and a
// request that has already completed costs not even that.
func (h *Pending) WaitTimeout(d time.Duration) error {
	if !h.Done() {
		at := obs.Now() + int64(max(d, 0))
		if at < 0 {
			at = math.MaxInt64 // now+d overflowed: a bound that far off never expires
		}
		h.st.c.expireAt(h, at)
	}
	return h.Wait()
}

// WaitContext is the context-aware WaitTimeout: if ctx ends first the
// request is canceled the same way (buffer detached, tokens returned) and
// ctx.Err() is published and returned. Unlike a WaitTimeout deadline, ctx
// bounds the wait only through this one attempt to cancel at its end: if
// the reader holds the request claimed at that instant (a payload in
// delivery) and then loses its connection, the wait lasts until the replay
// completes or reconnection gives up, as it always has.
func (h *Pending) WaitContext(ctx context.Context) error {
	if h.Done() {
		return h.err
	}
	stop := context.AfterFunc(ctx, func() { h.cancel(ctx.Err(), true) })
	defer stop()
	return h.Wait()
}

// Cancel detaches the request from its caller: the handle completes with
// ErrCanceled, the credit tokens return to their windows immediately, and
// the read/write buffers are released — the caller owns them again the
// moment Cancel returns true. The request itself may still reach the
// server; a late response is recognized by its stale request id and
// drained without touching caller memory. Cancel reports false when the
// request already completed — or its payload delivery had begun — in
// which case the handle carries the real status and the caller must Wait
// before touching the buffers.
func (h *Pending) Cancel() bool { return h.cancel(ErrCanceled, false) }

// cancel completes the handle with cause if the request is still
// pending; expired says the cause is a bounded wait's expiry.
func (h *Pending) cancel(cause error, expired bool) bool {
	c := h.st.c
	c.mu.Lock()
	ok := c.detachLocked(h)
	c.mu.Unlock()
	if ok {
		c.abandon(h, cause, expired)
	}
	return ok
}

// abandon counts and completes a request its caller has just detached.
// The counters move first, so a waiter woken by the completion reads them
// already moved.
func (c *Client) abandon(h *Pending, cause error, expired bool) {
	if expired {
		c.waitTimeouts.Add(1)
	}
	c.cancels.Add(1)
	c.finish(h, cause)
}

// detachLocked removes h from the pending map, if it is still there, and
// drops its buffers; the caller, holding mu, then owes h its completion.
// Removal under mu is the exclusion point against the reader's claim (see
// reader): whichever side removes the request owns its buffers.
func (c *Client) detachLocked(h *Pending) bool {
	if c.pending[h.id] != h {
		return false
	}
	delete(c.pending, h.id)
	h.buf = nil
	h.body = nil
	h.msg = nil
	return true
}

// expireAt registers a bounded waiter's deadline on h — at, an obs.Now()
// instant; the earliest registered stands — and makes sure the client's
// expiry timer fires by then. That timer is the only one bounded waits
// have: one time.AfterFunc per Client, armed for the earliest deadline it
// knows of and re-armed by each sweep, so a steady stream of waits with a
// common bound (a vault's IOTimeout on every leg) costs one firing per
// bound, not a timer per wait. A handle that is not in the pending map is
// never armed for: it has completed, or the reader holds it claimed — and
// should the reader give it back (unclaim), its deadline is still on the
// handle and unclaim arms for it, so such a wait stays bounded.
func (c *Client) expireAt(h *Pending, at int64) {
	c.mu.Lock()
	if h.expiry == 0 || at < h.expiry {
		h.expiry = at
	}
	if c.pending[h.id] == h {
		c.armLocked(h.expiry)
	}
	c.mu.Unlock()
}

// armLocked makes the expiry timer fire no later than at; call with mu
// held, for a request in the pending map — which a closed client's never
// holds, so a closed client arms nothing.
func (c *Client) armLocked(at int64) {
	if c.armedFor != 0 && c.armedFor <= at {
		return
	}
	c.armedFor = at
	d := time.Duration(at - obs.Now())
	if c.expiryTimer == nil {
		c.expiryTimer = time.AfterFunc(d, c.sweep)
	} else {
		c.expiryTimer.Reset(d)
	}
}

// disarmLocked stops the expiry timer for good: Close and failAllLocked
// call it as they empty the pending map. Call with mu held.
func (c *Client) disarmLocked() {
	if c.expiryTimer != nil {
		c.expiryTimer.Stop()
	}
	c.armedFor = 0
}

// sweep is the expiry timer's function: every pending request whose
// deadline has passed is canceled exactly as Cancel would (removed from
// the map under mu, so a completion the reader has already claimed wins
// and keeps its real status) and completes with ErrWaitTimeout, and the
// timer is re-armed for the earliest deadline left. The map holds at most
// a window of requests. A firing that finds nothing due — the request it
// was armed for completed long ago, the usual case — only re-arms.
func (c *Client) sweep() {
	now := obs.Now()
	var expired []*Pending
	c.mu.Lock()
	c.armedFor = 0
	var next int64
	for _, p := range c.pending {
		switch {
		case p.expiry == 0:
		case p.expiry <= now:
			c.detachLocked(p)
			expired = append(expired, p)
		case next == 0 || p.expiry < next:
			next = p.expiry
		}
	}
	if next != 0 {
		c.armLocked(next)
	}
	c.mu.Unlock()
	for _, p := range expired {
		c.abandon(p, ErrWaitTimeout, true)
	}
}

// Traced reports whether this request carries the sampled stage trace
// (1 in traceSample requests on a metrics-enabled client). Callers
// comparing the breakdown table against their own end-to-end timing
// should average over traced requests only, so both sides describe the
// same population.
func (h *Pending) Traced() bool { return h.t0 != 0 }

// TraceSupported reports whether the connected server negotiated the
// trace feature: sampled requests carry a trace id and return a filled
// server span block. False against a pre-trace server — the client then
// keeps its own stages and the table's server columns read zero.
func (c *Client) TraceSupported() bool { return c.features&wire.FeatureTrace != 0 }

// Client is a DSA-style block client for a netv3 server. It is safe for
// concurrent use; requests overlap up to the credit window.
//
// Every request is issued on a Stream. The embedded one is the session's
// root — stream 0, foreground, as many tokens as the session window the
// handshake negotiated — so Read/Write/Flush and their Async and Ctx forms
// on a Client are the root's, and OpenStream adds further streams that
// share its window. The root lives exactly as long as the Client: it
// cannot be closed on its own.
//
// Locking: mu guards only request bookkeeping (pending map, request ids,
// connection identity, reconnection state). Nothing a caller
// runs ever writes the socket: submitters copy their frame onto the
// connection's frameWriter queue and its one goroutine issues the write,
// so concurrent submitters and the completion path never wait behind a
// blocking network write — the lock-minimization lesson of Section 3.3
// applied to the client. Reconnection dials run under no lock (see
// recover): a 5-second dial to a dead peer must not freeze Stats, Close,
// cancels, or other submitters' bookkeeping.
type Client struct {
	*Stream // the root: stream 0, whose I/O methods are the Client's (set once, by dial)

	cfg  ClientConfig
	addr string
	// boot is the server incarnation the first handshake met: the high half
	// of ConnectResp.SessionID, drawn once per server process (zero from a
	// server that predates it). A reconnect that meets another one has
	// reached a different process and ends the session (see recover), so
	// what that handshake negotiated — the per-request transfer bound and
	// the feature bits — is fixed for the client's life, like the window.
	boot     uint32
	maxXfer  uint32
	features uint32

	mu         sync.Mutex
	conn       net.Conn
	pending    map[uint64]*Pending
	recovering bool // single-flight guard: one goroutine owns the reconnect loop
	closed     bool
	genID      int // bumps on every reconnect; stale readers exit
	// nextReq numbers requests: a request's ReqID, echoed by its Resp,
	// 64 bits wide so it never repeats within a client's life.
	nextReq uint64
	// expiryTimer is the one timer behind every bounded wait, created by the
	// first that has to block; armedFor is the obs.Now() instant it is set
	// to fire at, 0 while it is not armed. See expireAt.
	expiryTimer *time.Timer
	armedFor    int64
	// fw is the current connection generation's frame writer. Submitters
	// capture it under mu together with their bookkeeping; one that loses
	// the race with a reconnect posts to a retired writer, which refuses —
	// replay has already queued the request on the new one.
	fw *frameWriter
	// wrap, when set by an in-package test, interposes on every dialed
	// socket (counting writes, stalling them).
	wrap func(net.Conn) net.Conn
	// nextStream is the number OpenStream last handed out (guarded by mu).
	nextStream uint32

	wire wireCounters // frames and socket writes, all generations

	om        *clientObs    // stage-trace histograms; nil when Metrics is unset
	kaRTT     *obs.Hist     // netv3_client_keepalive_rtt_ns; nil when Metrics is unset
	traceCtr  atomic.Uint64 // submit counter driving 1-in-traceSample tracing
	traceBase uint64        // per-client trace-id salt (wall-clock at Dial)

	// Keepalive state. lastRecv is the obs.Now() stamp of the last
	// inbound frame; kaArmed is set while a ping is outstanding with a
	// read deadline armed on the connection (the reader clears both on
	// the next frame); kaPingAt times the outstanding ping for the RTT
	// histogram.
	lastRecv atomic.Int64
	kaArmed  atomic.Bool
	kaPingAt atomic.Int64

	streamsOpen   atomic.Int64 // currently open logical streams
	streamsOpened atomic.Int64 // cumulative streams ever opened

	reconnects   atomic.Int64
	retries      atomic.Int64 // requests replayed after a reconnect
	waitTimeouts atomic.Int64 // bounded-wait expiries observed by callers
	cancels      atomic.Int64 // requests canceled (explicitly or by expired waits)
	kaPings      atomic.Int64 // keepalive pings sent
	hungPeers    atomic.Int64 // connections declared dead by deadline enforcement
}

// Dial connects to a netv3 server.
func Dial(addr string, cfg ClientConfig) (*Client, error) { return dial(addr, cfg, nil) }

func dial(addr string, cfg ClientConfig, wrap func(net.Conn) net.Conn) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 100 * time.Millisecond
	}
	if cfg.MaxReconnects <= 0 {
		cfg.MaxReconnects = 8
	}
	c := &Client{
		cfg:       cfg,
		addr:      addr,
		pending:   make(map[uint64]*Pending),
		wrap:      wrap,
		kaRTT:     cfg.Metrics.Hist("netv3_client_keepalive_rtt_ns"),
		traceBase: uint64(time.Now().UnixNano()),
	}
	c.om = newClientObs(cfg.Metrics, c)
	if c.om != nil {
		c.wire.batch, c.wire.writeNS = c.om.framesPerWrite, c.om.wireWrite
	}
	conn, resp, err := c.dialSession()
	if err != nil {
		return nil, err
	}
	// The handshake is negotiated once and survives reconnections: the
	// server grants the same window per session, and requests in flight
	// keep their tokens through the replay.
	c.Stream = newStream(c, 0, int(resp.Credits))
	c.boot, c.maxXfer, c.features = bootOf(resp), resp.MaxXfer, resp.Features
	c.mu.Lock()
	c.installConn(conn)
	c.mu.Unlock()
	return c, nil
}

// bootOf extracts the server's boot nonce from a handshake reply.
func bootOf(resp *wire.ConnectResp) uint32 { return uint32(resp.SessionID >> 32) }

// dialSession dials and handshakes one session without holding any
// client lock. The whole exchange runs under a DialTimeout deadline: a
// peer that accepts the connection and then goes silent must fail the
// attempt, not hang it.
func (c *Client) dialSession() (net.Conn, *wire.ConnectResp, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, nil, err
	}
	if c.wrap != nil {
		conn = c.wrap(conn)
	}
	_ = conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := wire.WriteTo(conn, &wire.Connect{
		ClientID: 1, WantCreds: uint16(c.cfg.WantCredits),
		Features: wire.FeatureTrace,
	}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	msg, err := wire.ReadFrom(conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	resp, ok := msg.(*wire.ConnectResp)
	if !ok || resp.Status != wire.StatusOK {
		conn.Close()
		return nil, nil, fmt.Errorf("netv3: handshake rejected: %v", msg)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, resp, nil
}

// installConn adopts a freshly handshaken connection; call with mu held.
func (c *Client) installConn(conn net.Conn) {
	c.conn = conn
	c.genID++
	gen := c.genID
	c.lastRecv.Store(obs.Now())
	c.kaArmed.Store(false)
	c.kaPingAt.Store(0)
	// A failed write is this generation's to report, exactly like a failed
	// read: connectionBroken ignores it once the generation has moved on.
	c.fw = newFrameWriter(conn, &c.wire, func() { c.connectionBroken(gen) })
	go c.reader(conn, gen)
	if c.cfg.KeepaliveInterval > 0 {
		go c.keepalive(conn, c.fw, gen)
	}
}

// MaxTransfer returns the server's per-request transfer bound, fixed at
// Dial; safe to call concurrently with anything.
func (c *Client) MaxTransfer() int { return int(c.maxXfer) }

// KillConnForTest severs the underlying TCP connection without marking
// the client closed, so the next I/O exercises the reconnection path.
// For fault-injection tests and demos only.
func (c *Client) KillConnForTest() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
	}
}

// Reconnects returns how many times the session has been re-established.
// The counter is written by the reconnection path, so the load is atomic
// — callers may poll it concurrently with I/O.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// ClientStats is a point-in-time snapshot of the client's health
// counters — the submission-side visibility the server has always had.
type ClientStats struct {
	// InFlight is the number of requests submitted but not yet completed
	// (each holds a token of the session window).
	InFlight int
	// Retries counts requests replayed onto a fresh session after a
	// reconnect; Reconnects counts the sessions themselves.
	Retries    int64
	Reconnects int64
	// WaitTimeouts counts requests given up by an expired bounded wait
	// (WaitTimeout/WaitContext); each is a cancel too, counted under Cancels.
	// An expiry that lost the race to the request's completion counts
	// nowhere.
	WaitTimeouts int64
	// Cancels counts requests canceled before completion — explicitly or
	// by an expired bounded wait. Every cancel returned its credit tokens
	// at once.
	Cancels int64
	// KeepalivePings counts TPing probes sent on idle links;
	// HungDetections counts connections declared dead because the probe's
	// read deadline expired with the peer silent.
	KeepalivePings int64
	HungDetections int64
	// StreamsOpen is the number of streams OpenStream opened that are
	// still open; StreamsOpened is the cumulative count. Neither counts the
	// root.
	StreamsOpen   int64
	StreamsOpened int64
	// FramesSent counts frames put on the wire and WireWrites the socket
	// writes that carried them, over every connection generation; their
	// ratio is the submission-batching factor (1 for a lone blocking
	// caller, up to the window for an async submitter).
	FramesSent int64
	WireWrites int64
}

// Stats snapshots the client's counters; safe to call concurrently with
// I/O — including while a reconnect storm is dialing, which no longer
// holds the bookkeeping lock.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	inflight := len(c.pending)
	c.mu.Unlock()
	return ClientStats{
		InFlight:       inflight,
		Retries:        c.retries.Load(),
		Reconnects:     c.reconnects.Load(),
		WaitTimeouts:   c.waitTimeouts.Load(),
		Cancels:        c.cancels.Load(),
		KeepalivePings: c.kaPings.Load(),
		HungDetections: c.hungPeers.Load(),
		StreamsOpen:    c.streamsOpen.Load(),
		StreamsOpened:  c.streamsOpened.Load(),
		FramesSent:     c.wire.frames.Load(),
		WireWrites:     c.wire.writes.Load(),
	}
}

// Close tears the session down; outstanding requests fail. The teardown
// is ordered: Disconnect queues behind every frame already submitted, the
// writer puts them on the wire and exits, then the socket closes. Against
// a peer that has stopped reading, the write deadline (DialTimeout, the
// bound every other wait on a silent peer uses) fails the writer instead
// of hanging Close.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn, fw := c.conn, c.fw
	failed := c.pending
	c.pending = map[uint64]*Pending{}
	c.disarmLocked()
	c.mu.Unlock()
	_ = fw.send(&wire.Disconnect{}, nil) // refused only if the connection is already dead
	_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.DialTimeout))
	fw.stop()
	conn.Close()
	for _, p := range failed {
		c.finish(p, ErrClosed)
	}
	return nil
}

// send posts a request frame plus payload to fw, the writer of the
// connection generation the request was issued on; m and body are the
// request's, read by the caller under mu or before the handle was shared.
// The payload is copied here — the caller owns its buffer again the moment
// this returns, which Cancel and WaitTimeout promise. The frames of every
// submitter that gets here before the writer does leave in one socket
// write. A refusal means that generation is dead (a write failed, or a
// reconnect retired it): failure detection belongs to its reader and
// writer, retransmission to replay, so there is nothing to do with it.
func (c *Client) send(fw *frameWriter, p *Pending, m wire.Message, body []byte) {
	// Stage trace: t1 closes the submission stage, t2 the "wire write"
	// stage — now the time to ring the doorbell (lock, encode, copy). The
	// writer's wake-up and the write syscall land in net+kernel; their
	// per-batch cost is the netv3_client_wire_write_ns histogram.
	trace := p.t0 != 0
	if trace {
		p.t1 = obs.Now()
	}
	_ = fw.send(m, body)
	if trace {
		p.t2 = obs.Now()
	}
}

// keepalive is one connection generation's hung-peer detector. It wakes
// twice per interval and, whenever the link has been silent for a full
// interval, sends a TPing and arms a read deadline one interval out. A
// live peer answers with TPong (the reader clears the deadline and logs
// the RTT); a hung peer lets the deadline fire, which fails the reader
// and enters reconnection — the same path a closed peer takes, which is
// the whole point: "dead peer ⇒ silent" becomes as detectable as
// "dead peer ⇒ closed conn". While traffic flows, the hot path pays one
// atomic store per inbound frame and this goroutine never sends.
func (c *Client) keepalive(conn net.Conn, fw *frameWriter, gen int) {
	iv := c.cfg.KeepaliveInterval
	tick := time.NewTicker(iv / 2)
	defer tick.Stop()
	for range tick.C {
		c.mu.Lock()
		stale := gen != c.genID || c.closed
		c.mu.Unlock()
		if stale {
			return
		}
		if c.kaArmed.Load() {
			// Ping outstanding; the armed read deadline owns detection.
			continue
		}
		if time.Duration(obs.Now()-c.lastRecv.Load()) < iv {
			continue
		}
		// Idle a full interval: probe. Arm the deadline before sending so
		// a pong can never race an unarmed state.
		c.kaPingAt.Store(obs.Now())
		c.kaArmed.Store(true)
		_ = conn.SetReadDeadline(time.Now().Add(iv))
		c.kaPings.Add(1)
		_ = fw.send(&wire.Ping{}, nil) // a dead link is the armed deadline's to report
	}
}

// reader demultiplexes responses for one connection generation. Every
// request is answered by one Resp, decoded into one reusable struct, so
// steady-state reads allocate nothing on the completion path.
func (c *Client) reader(conn net.Conn, gen int) {
	br := bufio.NewReaderSize(conn, sockBufSize)
	var frame [wire.ControlSize]byte
	var m wire.Resp
	fail := func(err error) {
		c.mu.Lock()
		stale := gen != c.genID || c.closed
		c.mu.Unlock()
		if stale {
			return
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// The keepalive's armed deadline expired with the peer silent:
			// a hung, not closed, connection — count it distinctly, then
			// recover exactly like a break.
			c.hungPeers.Add(1)
		}
		c.connectionBroken(gen)
	}
	for {
		t, err := wire.ReadFrame(br, &frame)
		if err != nil {
			fail(err)
			return
		}
		// Frame arrived: feed the keepalive. Clearing the armed deadline
		// costs a syscall only when a ping was outstanding.
		c.lastRecv.Store(obs.Now())
		if c.kaArmed.CompareAndSwap(true, false) {
			_ = conn.SetReadDeadline(time.Time{})
		}
		switch t {
		case wire.TResp:
			if err := wire.UnmarshalInto(frame[:], &m); err != nil {
				fail(err)
				return
			}
			// Claim the pending before touching its buffer: removal from
			// the map under mu is the exclusion point against Cancel —
			// whichever side removes the request owns the buffers. A
			// canceled (absent) request's payload is drained blind, never
			// written into memory the caller got back.
			c.mu.Lock()
			p := c.pending[m.ReqID]
			delete(c.pending, m.ReqID)
			c.mu.Unlock()
			n := int64(m.Length)
			var ioErr error
			switch {
			case m.Status != wire.StatusOK:
				ioErr = respErr(m.Status, m.RetryAfterMS)
				// Error responses carry no payload (Length is 0), but trust
				// the header over the convention.
				if n > 0 {
					_, err = io.CopyN(io.Discard, br, n)
				}
			case p != nil && int64(len(p.buf)) == n:
				// A read's data, or nothing for a write or a flush (whose
				// buf is nil).
				_, err = io.ReadFull(br, p.buf)
			default:
				// Unknown, stale or canceled request, or a length mismatch. The
				// payload must still leave the stream — otherwise its bytes
				// would be parsed as the next control frame and every
				// subsequent response on this connection would be corrupted.
				_, err = io.CopyN(io.Discard, br, n)
				if p != nil {
					ioErr = fmt.Errorf("netv3: response length %d != buffer %d", n, len(p.buf))
				}
			}
			if err != nil { // stream died mid-payload
				if p != nil {
					c.unclaim(p, gen)
				}
				fail(err)
				return
			}
			if p != nil {
				// Stage trace: the response has arrived; everything from the
				// submitter's wire write to here is the server and net stages.
				// Untraced requests (t0 == 0) skip the clock.
				if p.t0 != 0 {
					p.t3 = obs.Now()
					p.span = m.SrvSpan
				}
				c.finish(p, ioErr)
			}
		case wire.TPong:
			// Keepalive answer: log the round trip of the outstanding ping.
			if at := c.kaPingAt.Swap(0); at != 0 {
				c.kaRTT.Observe(obs.Now() - at)
			}
		default:
			// Unexpected frame: treat as protocol failure.
			c.connectionBroken(gen)
			return
		}
	}
}

// unclaim returns a claimed-but-undelivered request to the pending set
// (the stream of connection generation gen died mid-payload) so
// reconnection replays it — or fails it with ErrClosed when the client is
// already gone.
//
// The reader is not always the first to notice a dead connection: a
// submitter whose write failed may already have driven recovery to
// completion while this reader sat in the payload read, and that replay
// ran without the request — it was claimed, hence absent from the pending
// set. Nothing would ever send it again, so in that case it is resent
// here on the connection that replaced gen. (Replay runs under mu in one
// hold with the generation bump, so "generation moved on and no recovery
// in progress" means exactly "a replay that missed this request has
// finished"; a recovery still in progress will find it in the set.)
func (c *Client) unclaim(p *Pending, gen int) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.finish(p, ErrClosed)
		return
	}
	c.pending[p.id] = p
	if p.expiry != 0 {
		// A bounded waiter registered while the request was claimed, or the
		// sweep passed it by: either way nothing is armed for it.
		c.armLocked(p.expiry)
	}
	fw, msg, body := c.fw, p.msg, p.body
	resend := c.genID != gen && !c.recovering
	c.mu.Unlock()
	if resend {
		c.retries.Add(1)
		c.send(fw, p, msg, body)
	}
}

// finish publishes the completion — status, then the word pollers read,
// then the wake-up of whoever parked — and returns the request's credit
// tokens. Each Pending reaches finish exactly once: the reader's claim,
// cancel, the expiry sweep, Close, and permanent reconnection failure all
// remove it from the pending map under mu before calling here, so no two
// paths can both own it.
func (c *Client) finish(p *Pending, err error) {
	p.err = err
	if p.t3 != 0 {
		p.t4 = obs.Now()
	}
	p.completed.Store(true)
	p.parked.Done()
	p.st.give()
}

// connectionBroken starts recovery for connection generation gen,
// reported dead by its reader (EOF, error, armed deadline) or its writer
// (failed write). Only the first report becomes the recovery
// driver (single-flight); the other half's report of the same death — and
// any report from a generation already replaced, which must not tear down
// its successor — returns immediately. Outstanding requests stay parked in
// the pending map for replay. The generation's writer is retired with it:
// frames queued but unwritten are dropped (replay re-sends them) and its
// goroutine exits.
func (c *Client) connectionBroken(gen int) {
	c.mu.Lock()
	if gen != c.genID || c.closed || c.recovering {
		c.mu.Unlock()
		return
	}
	c.recovering = true
	c.conn.Close()
	c.fw.abort(net.ErrClosed)
	c.mu.Unlock()
	c.recover()
}

// recover drives reconnection to completion: redial with exponential
// backoff and replay every unacknowledged request on the new session, or
// — when the bounded retry budget is spent, or the server that answers is
// not the process the session began with — complete everything
// outstanding with ErrConnLost so no waiter hangs forever. Dial attempts
// (up to DialTimeout each) run with mu RELEASED: Stats, Close, cancels
// and submitter bookkeeping stay responsive through a reconnect storm.
func (c *Client) recover() {
	for failed := 0; ; {
		c.mu.Lock()
		if c.closed {
			c.recovering = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		conn, resp, err := c.dialSession() // no locks held

		c.mu.Lock()
		if c.closed {
			c.recovering = false
			c.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return
		}
		if err != nil {
			if failed++; failed >= c.cfg.MaxReconnects {
				c.failAllLocked()
				return
			}
			c.mu.Unlock()
			time.Sleep(backoffDelay(c.cfg.ReconnectBackoff, failed))
			continue
		}
		if bootOf(resp) != c.boot {
			// Reconnection is the remedy for a failed link. A new server
			// process has lost the volatile state every earlier ack relied
			// on — write-behind blocks it acknowledged and never destaged —
			// so replaying onto it would let a later Flush report durable
			// what is gone. The session ends here and the layer above (a
			// vault trips the replica and resyncs it from its flush
			// watermark) decides what to do about the loss.
			conn.Close()
			c.failAllLocked()
			return
		}
		c.installConn(conn)
		c.reconnects.Add(1)
		// Replay unanswered requests in submission order on the new
		// session; each frame still carries its stream's class. Should the
		// new connection die under the replay, its reader or writer reports
		// it and the next recovery — which starts once this one lets go of
		// mu — replays again.
		ids := make([]uint64, 0, len(c.pending))
		for id := range c.pending {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			p := c.pending[id]
			c.retries.Add(1)
			c.send(c.fw, p, p.msg, p.body)
		}
		c.recovering = false
		c.mu.Unlock()
		return
	}
}

// backoffDelay is the wait that follows the failed-th consecutive failed
// reconnect attempt (counting from 1): base, doubled per earlier failure.
func backoffDelay(base time.Duration, failed int) time.Duration {
	return base << (failed - 1)
}

// failAllLocked ends recovery permanently: every outstanding request
// completes with ErrConnLost and the client closes. Called with mu held;
// unlocks before publishing completions.
func (c *Client) failAllLocked() {
	failed := c.pending
	c.pending = map[uint64]*Pending{}
	c.closed = true
	c.recovering = false
	c.disarmLocked()
	c.mu.Unlock()
	for _, p := range failed {
		c.finish(p, ErrConnLost)
	}
}
