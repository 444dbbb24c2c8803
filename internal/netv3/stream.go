package netv3

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// ErrOverloaded is the sentinel behind shed completions: the server's
// admission control rejected the request instead of queueing it. Match
// with errors.Is; the concrete *OverloadedError carries the server's
// retry-after hint.
var ErrOverloaded = errors.New("netv3: server overloaded")

// ErrTooLarge is returned by a read or write longer than the server's
// per-request bound, Client.MaxTransfer: the request is refused before it
// takes a token or reaches the wire, since the server cannot stage it.
var ErrTooLarge = errors.New("netv3: transfer exceeds the server's MaxTransfer")

// ErrStreamClosed is returned by submissions on a closed stream, and is
// the completion status of requests in flight on a stream when it closed.
var ErrStreamClosed = errors.New("netv3: stream closed")

// OverloadedError is the concrete shed error: errors.Is(err,
// ErrOverloaded) matches it, and RetryAfter carries the server's backoff
// hint (zero when the server offered none).
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("netv3: server overloaded (retry after %v)", e.RetryAfter)
	}
	return "netv3: server overloaded"
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// respErr maps a response status (plus its shed hint) to the completion
// error. The common path — StatusOK — stays a single compare.
func respErr(s wire.Status, retryMS uint16) error {
	if s == wire.StatusOK {
		return nil
	}
	if s == wire.StatusEOverloaded {
		return &OverloadedError{RetryAfter: time.Duration(retryMS) * time.Millisecond}
	}
	return s.Err()
}

// StreamConfig tunes one logical stream.
type StreamConfig struct {
	// Credits caps how many requests this stream may have in flight — its
	// carve-out of the session window, clamped to [1, window]. Streams never
	// add to the window: every request of an opened stream also holds one
	// of the root's tokens, so the session window stays the hard bound and
	// the per-stream cap keeps one chatty logical client from monopolizing
	// it.
	Credits int
	// Background routes the stream's requests to the server's background
	// QoS lane — bulk utility traffic such as a vault's resync replay —
	// which can never starve the foreground lane.
	Background bool
}

// Stream is one logical client session multiplexed over a Client's
// connection — the paper's many-database-sessions-per-VI shape — and the
// only way onto that connection: every request is issued on a Stream.
// Each holds its own credit tokens and QoS class; thousands can share one
// wire connection. A stream is the client's alone: the server keeps no
// record of it, and learns its class from every request frame's stream id.
// Stream 0 is the Client's root (see Client). Safe for concurrent use.
type Stream struct {
	c *Client
	// id is the stream id every request frame carries: the stream's number
	// plus, on a background stream, the class bit wire.StreamBackground.
	id uint32

	// sem holds the stream's credit tokens (capacity = granted credits);
	// the root's are the session window.
	sem chan struct{}

	closed atomic.Bool
}

// newStream returns c's stream id, its window full: credits tokens.
func newStream(c *Client, id uint32, credits int) *Stream {
	st := &Stream{c: c, id: id, sem: make(chan struct{}, credits)}
	for i := 0; i < credits; i++ {
		st.sem <- struct{}{}
	}
	return st
}

// ID returns the stream's number, without its class bit; 0 is the root.
func (st *Stream) ID() uint32 { return st.id &^ wire.StreamBackground }

// Credits returns the stream's granted window — for the root, the
// session's negotiated one: the number of requests that can usefully be in
// flight at once. Callers that fan a batch out over the async API
// (database read-ahead, extent scatter) should clamp their outstanding
// requests to this: past the window, extra submissions only queue for a
// token and inflate the submission stage without adding concurrency.
func (st *Stream) Credits() int { return cap(st.sem) }

// Background reports whether the stream rides the background QoS lane.
func (st *Stream) Background() bool { return st.id&wire.StreamBackground != 0 }

// acquire takes one credit token from sem, blocking while it is empty. A
// nil ctx is the uncancelable fast path (one channel receive); with a ctx
// the wait ends early with ctx.Err() — the primitive that keeps health
// probes out of a wedged window. A token that is there beats a context
// that is already done.
func acquire(ctx context.Context, sem chan struct{}) error {
	if ctx == nil {
		<-sem
		return nil
	}
	select {
	case <-sem:
		return nil
	default:
	}
	select {
	case <-sem:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// take acquires a request's credit tokens — the one credit rule: one from
// the issuing stream and, when that is not the root, one from the root,
// whose tokens are the session window. A stream at its cap therefore
// queues on its own tokens without touching the window its siblings
// share, and a request on the root pays exactly one receive. The closed
// check follows the waits: Close cancels the stream's requests, and their
// returning tokens must wake blocked submitters into an error, not into a
// dead stream.
func (st *Stream) take(ctx context.Context) error {
	if err := acquire(ctx, st.sem); err != nil {
		return err
	}
	if root := st.c.Stream; st != root {
		if err := acquire(ctx, root.sem); err != nil {
			st.sem <- struct{}{}
			return err
		}
	}
	if st.closed.Load() {
		st.give()
		return ErrStreamClosed
	}
	return nil
}

// give returns what take acquired.
func (st *Stream) give() {
	if root := st.c.Stream; st != root {
		root.sem <- struct{}{}
	}
	st.sem <- struct{}{}
}

// Client-side op kinds for submit. All three hold credit tokens while in
// flight: the window bounds outstanding requests of any kind.
const (
	opRead = iota
	opWrite
	opFlush
)

// submit is the one way onto the connection: take the tokens, register
// the request, ring the doorbell.
func (st *Stream) submit(ctx context.Context, op int, vol uint32, off int64, buf, data []byte) (*Pending, error) {
	c := st.c
	// A write past the server's bound cannot be staged: the server closes
	// the session on it, and replay would send it into the next one
	// forever. A read past it could only be refused. (A flush moves no
	// bytes.)
	if n := len(buf) + len(data); n > int(c.maxXfer) {
		return nil, fmt.Errorf("%w: %d bytes, bound %d", ErrTooLarge, n, c.maxXfer)
	}
	// Stage trace starts at API entry, so the submission stage includes
	// any credit-window wait — the cost a caller actually experiences.
	// Only every traceSample-th request is traced; the rest pay one
	// counter increment here and zero-value branches downstream.
	var t0 int64
	if c.om != nil && c.traceCtr.Add(1)%traceSample == 0 {
		t0 = obs.Now()
	}
	if err := st.take(ctx); err != nil {
		return nil, err
	}
	p := &Pending{st: st, t0: t0}
	p.parked.Add(1) // released by finish
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		st.give() // wakes any other blocked submitter into the same error
		return nil, ErrClosed
	}
	c.nextReq++
	p.id = c.nextReq
	hdr := wire.Header{Stream: st.id}
	switch op {
	case opWrite:
		p.body = data
		p.wr = wire.Write{
			Header: hdr, ReqID: p.id,
			Volume: vol, Offset: uint64(off), Length: uint32(len(data)),
		}
		p.msg = &p.wr
	case opRead:
		p.buf = buf
		p.rd = wire.Read{
			Header: hdr, ReqID: p.id,
			Volume: vol, Offset: uint64(off), Length: uint32(len(buf)),
		}
		p.msg = &p.rd
	case opFlush:
		p.fl = wire.Flush{Header: hdr, ReqID: p.id, Volume: vol}
		p.msg = &p.fl
	}
	// A traced request carries a trace id on the wire (when the server
	// negotiated FeatureTrace), telling the server to answer with its
	// span block — the join key between the client's stage trace and the
	// server's flight-recorder events. The id mixes the per-client salt
	// with the request id through a Weyl/Fibonacci step so ids from
	// clients dialed in the same instant still diverge.
	if t0 != 0 && c.features&wire.FeatureTrace != 0 {
		tr := c.traceBase ^ (p.id * 0x9e3779b97f4a7c15)
		if tr == 0 {
			tr = 1 // zero means untraced on the wire
		}
		p.msg.Hdr().Trace = tr
	}
	c.pending[p.id] = p
	fw, msg := c.fw, p.msg
	c.mu.Unlock()
	// Whatever becomes of the send the request is tracked: reconnection
	// replay (or permanent failure) will complete the handle.
	c.send(fw, p, msg, data)
	return p, nil
}

// do is the synchronous form of submit: with a ctx the completion wait is
// bounded by it like the token wait, and a request it cuts short is
// canceled — the caller's buffer is its own again the moment do returns.
func (st *Stream) do(ctx context.Context, op int, vol uint32, off int64, buf, data []byte) error {
	h, err := st.submit(ctx, op, vol, off, buf, data)
	if err != nil {
		return err
	}
	if ctx == nil {
		return h.Wait()
	}
	return h.WaitContext(ctx)
}

// ReadAsync submits a read and returns immediately with a completion
// handle; buf must stay untouched until the handle reports completion
// (or is canceled, which hands buf back to the caller). Submission
// blocks only while the credit window is exhausted.
func (st *Stream) ReadAsync(vol uint32, off int64, buf []byte) (*Pending, error) {
	return st.submit(nil, opRead, vol, off, buf, nil)
}

// ReadAsyncCtx is ReadAsync with a cancelable token wait: if ctx ends
// while the window is exhausted — say, wedged by hung data-path requests —
// submission returns ctx.Err() instead of joining the wedge. Health probes
// depend on this bound.
func (st *Stream) ReadAsyncCtx(ctx context.Context, vol uint32, off int64, buf []byte) (*Pending, error) {
	return st.submit(ctx, opRead, vol, off, buf, nil)
}

// WriteAsync submits a write and returns immediately with a completion
// handle; data must stay untouched until the handle reports completion
// (or is canceled).
func (st *Stream) WriteAsync(vol uint32, off int64, data []byte) (*Pending, error) {
	return st.submit(nil, opWrite, vol, off, nil, data)
}

// WriteAsyncCtx is WriteAsync with a cancelable token wait.
func (st *Stream) WriteAsyncCtx(ctx context.Context, vol uint32, off int64, data []byte) (*Pending, error) {
	return st.submit(ctx, opWrite, vol, off, nil, data)
}

// FlushAsync submits a flush barrier and returns a completion handle.
func (st *Stream) FlushAsync(vol uint32) (*Pending, error) {
	return st.submit(nil, opFlush, vol, 0, nil, nil)
}

// FlushAsyncCtx is FlushAsync with a cancelable token wait.
func (st *Stream) FlushAsyncCtx(ctx context.Context, vol uint32) (*Pending, error) {
	return st.submit(ctx, opFlush, vol, 0, nil, nil)
}

// Read fills buf from volume vol at off.
func (st *Stream) Read(vol uint32, off int64, buf []byte) error {
	return st.do(nil, opRead, vol, off, buf, nil)
}

// Write sends data to volume vol at off. Completion means the server
// accepted the bytes and every later read observes them; on a
// write-behind server they may not yet be durable — Flush is the
// durability barrier.
func (st *Stream) Write(vol uint32, off int64, data []byte) error {
	return st.do(nil, opWrite, vol, off, nil, data)
}

// Flush is the durability barrier: when it returns nil, every write on
// vol whose completion was observed before Flush was submitted is
// durable on the server's store. Writes still in flight are not covered
// — Wait them first.
func (st *Stream) Flush(vol uint32) error {
	return st.do(nil, opFlush, vol, 0, nil, nil)
}

// ReadCtx is the cancelable synchronous read: ctx bounds both the token
// wait and the completion. If ctx ends first the request is canceled —
// buf is the caller's again the moment this returns — and ctx.Err() comes
// back.
func (st *Stream) ReadCtx(ctx context.Context, vol uint32, off int64, buf []byte) error {
	return st.do(ctx, opRead, vol, off, buf, nil)
}

// WriteCtx is the cancelable synchronous write; see ReadCtx.
func (st *Stream) WriteCtx(ctx context.Context, vol uint32, off int64, data []byte) error {
	return st.do(ctx, opWrite, vol, off, nil, data)
}

// FlushCtx is the cancelable durability barrier; see ReadCtx. A canceled
// flush guarantees nothing — reissue it after the window drains.
func (st *Stream) FlushCtx(ctx context.Context, vol uint32) error {
	return st.do(ctx, opFlush, vol, 0, nil, nil)
}

// Close retires the stream: requests still in flight on it complete with
// ErrStreamClosed (their buffers detach exactly like Cancel — a late
// response from the server matches no pending request and is drained
// without touching caller memory), and further submissions fail fast.
// Nothing goes on the wire: the server has no record of the stream to
// drop. Idempotent. The root is the session itself and refuses:
// Client.Close ends it.
func (st *Stream) Close() error {
	c := st.c
	if st == c.Stream {
		return errors.New("netv3: the root stream closes with its client")
	}
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}

	// Detach in-flight requests. Collect under mu, cancel outside it:
	// cancel re-takes mu and re-checks membership, so a racing completion
	// simply wins.
	c.mu.Lock()
	var inflight []*Pending
	for _, p := range c.pending {
		if p.st == st {
			inflight = append(inflight, p)
		}
	}
	c.mu.Unlock()
	for _, p := range inflight {
		p.cancel(ErrStreamClosed, false)
	}
	c.streamsOpen.Add(-1)
	return nil
}

// OpenStream opens a logical stream beside the root, on the client alone:
// it takes the next stream number and a token pool of cfg.Credits clamped
// to [1, the session window], and the class rides every request frame as
// the id's top bit. Nothing goes on the wire, so OpenStream neither blocks
// nor fails; on a closed client the stream's submissions fail with
// ErrClosed like the root's.
func (c *Client) OpenStream(cfg StreamConfig) *Stream {
	c.mu.Lock()
	// Stream numbers run 1..2³¹-1: 0 is the root, the top bit the class.
	c.nextStream = c.nextStream%(wire.StreamBackground-1) + 1
	id := c.nextStream
	c.mu.Unlock()
	if cfg.Background {
		id |= wire.StreamBackground
	}
	c.streamsOpen.Add(1)
	c.streamsOpened.Add(1)
	return newStream(c, id, min(max(cfg.Credits, 1), c.Credits()))
}
