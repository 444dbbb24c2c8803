package netv3

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/wire"
)

// ErrOverloaded is the sentinel behind shed completions: the server's
// admission control rejected the request instead of queueing it. Match
// with errors.Is; the concrete *OverloadedError carries the server's
// retry-after hint.
var ErrOverloaded = errors.New("netv3: server overloaded")

// ErrStreamClosed is returned by submissions on a closed stream, and is
// the completion status of requests in flight on a stream when it closed.
var ErrStreamClosed = errors.New("netv3: stream closed")

// ErrStreamsUnsupported is returned by OpenStream when the connected
// server did not negotiate the stream feature (an old binary).
var ErrStreamsUnsupported = errors.New("netv3: peer does not support streams")

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

// IO is the async block-I/O surface shared by a whole client session and
// by one logical stream of it: cluster layers program against IO so a
// vault backend can ride a multiplexed stream or a bare connection
// interchangeably.
type IO interface {
	ReadAsync(vol uint32, off int64, buf []byte) (*Pending, error)
	WriteAsync(vol uint32, off int64, data []byte) (*Pending, error)
	FlushAsync(vol uint32) (*Pending, error)
	ReadAsyncCtx(ctx context.Context, vol uint32, off int64, buf []byte) (*Pending, error)
	WriteAsyncCtx(ctx context.Context, vol uint32, off int64, data []byte) (*Pending, error)
	FlushAsyncCtx(ctx context.Context, vol uint32) (*Pending, error)
}

var (
	_ IO = (*Client)(nil)
	_ IO = (*Stream)(nil)
)

// StreamConfig tunes one logical stream.
type StreamConfig struct {
	// Credits caps how many of the connection's credit slots this stream
	// may hold concurrently — its carve-out of the shared window. Streams
	// never add slots: the connection window stays the hard bound, the
	// per-stream cap keeps one chatty logical client from monopolizing it.
	// 0 asks for 1.
	Credits int
	// Weight is the stream's share in the server's per-tenant weighted
	// round-robin (0 = default weight 1). A weight-4 stream gets up to 4
	// requests dispatched per scheduler visit.
	Weight int
	// Background routes the stream's requests to the server's background
	// QoS lane (destage/resync/prefetch-class traffic), which can never
	// starve the foreground lane.
	Background bool
}

// Stream is one logical client session multiplexed over a Client's
// connection — the paper's many-database-sessions-per-VI shape. Each
// stream holds its own credit carve-out and QoS class; thousands can
// share one wire connection. Safe for concurrent use.
type Stream struct {
	c   *Client
	id  uint32
	cfg StreamConfig

	// sem holds the stream's credit tokens (capacity = granted credits).
	// Submission takes a token before competing for a connection slot, so
	// a stream at its cap queues locally instead of starving siblings.
	sem chan struct{}

	closed atomic.Bool
}

// ID returns the wire stream id.
func (st *Stream) ID() uint32 { return st.id }

// Credits returns the granted per-stream credit cap.
func (st *Stream) Credits() int { return cap(st.sem) }

// Background reports whether the stream rides the background QoS lane.
func (st *Stream) Background() bool { return st.cfg.Background }

// acquire takes one stream credit, honoring ctx (nil = block forever).
func (st *Stream) acquire(ctx context.Context) error {
	if ctx == nil {
		<-st.sem
		return nil
	}
	select {
	case <-st.sem:
		return nil
	default:
	}
	select {
	case <-st.sem:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns one stream credit.
func (st *Stream) release() { st.sem <- struct{}{} }

// submit runs the client submission path under this stream's credit
// carve-out and stream id. The closed check repeats after the credit
// wait: Close drains in-flight requests, and their returning tokens must
// wake blocked submitters into an error, not into a dead stream.
func (st *Stream) submit(ctx context.Context, op int, vol uint32, off int64, buf, data []byte) (*Pending, error) {
	if st.closed.Load() {
		return nil, ErrStreamClosed
	}
	if err := st.acquire(ctx); err != nil {
		return nil, err
	}
	if st.closed.Load() {
		st.release()
		return nil, ErrStreamClosed
	}
	p, err := st.c.submit(ctx, st, op, vol, off, buf, data)
	if err != nil {
		st.release()
		return nil, err
	}
	return p, nil
}

// ReadAsync submits a read on this stream; see Client.ReadAsync.
func (st *Stream) ReadAsync(vol uint32, off int64, buf []byte) (*Pending, error) {
	return st.submit(nil, opRead, vol, off, buf, nil)
}

// ReadAsyncCtx is ReadAsync with a cancelable credit wait.
func (st *Stream) ReadAsyncCtx(ctx context.Context, vol uint32, off int64, buf []byte) (*Pending, error) {
	return st.submit(ctx, opRead, vol, off, buf, nil)
}

// WriteAsync submits a write on this stream; see Client.WriteAsync.
func (st *Stream) WriteAsync(vol uint32, off int64, data []byte) (*Pending, error) {
	return st.submit(nil, opWrite, vol, off, nil, data)
}

// WriteAsyncCtx is WriteAsync with a cancelable credit wait.
func (st *Stream) WriteAsyncCtx(ctx context.Context, vol uint32, off int64, data []byte) (*Pending, error) {
	return st.submit(ctx, opWrite, vol, off, nil, data)
}

// FlushAsync submits a durability barrier on this stream.
func (st *Stream) FlushAsync(vol uint32) (*Pending, error) {
	return st.submit(nil, opFlush, vol, 0, nil, nil)
}

// FlushAsyncCtx is FlushAsync with a cancelable credit wait.
func (st *Stream) FlushAsyncCtx(ctx context.Context, vol uint32) (*Pending, error) {
	return st.submit(ctx, opFlush, vol, 0, nil, nil)
}

// Read is the synchronous read on this stream.
func (st *Stream) Read(vol uint32, off int64, buf []byte) error {
	h, err := st.ReadAsync(vol, off, buf)
	if err != nil {
		return err
	}
	return h.Wait()
}

// Write is the synchronous write on this stream.
func (st *Stream) Write(vol uint32, off int64, data []byte) error {
	h, err := st.WriteAsync(vol, off, data)
	if err != nil {
		return err
	}
	return h.Wait()
}

// Flush is the synchronous durability barrier on this stream.
func (st *Stream) Flush(vol uint32) error {
	h, err := st.FlushAsync(vol)
	if err != nil {
		return err
	}
	return h.Wait()
}

// Close retires the stream: requests still in flight on it complete with
// ErrStreamClosed (their buffers detach exactly like Cancel — a late
// response from the server matches no pending request and is drained
// without touching caller memory), the server is told to drop the stream's
// scheduler state, and further submissions fail fast. Idempotent.
func (st *Stream) Close() error {
	if !st.closed.CompareAndSwap(false, true) {
		return nil
	}
	c := st.c

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
	delete(c.streams, st.id)
	fw := c.fw
	closed := c.closed
	c.mu.Unlock()
	for _, p := range inflight {
		p.cancel(ErrStreamClosed)
	}
	if !closed {
		_ = fw.send(&wire.StreamClose{Header: wire.Header{Stream: st.id}}, nil)
	}
	c.streamsOpen.Add(-1)
	return nil
}

// OpenStream negotiates a new logical stream on the connection. The
// request round-trips to the server (bounded by DialTimeout) so the grant
// — per-stream credits, admission — is authoritative. Under overload the
// server can refuse with ErrOverloaded plus a retry-after hint.
func (c *Client) OpenStream(cfg StreamConfig) (*Stream, error) {
	if cfg.Credits <= 0 {
		cfg.Credits = 1
	}
	if cfg.Credits > int(^uint16(0)) {
		cfg.Credits = int(^uint16(0))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.features&wire.FeatureStreams == 0 {
		c.mu.Unlock()
		return nil, ErrStreamsUnsupported
	}
	if c.maxStreams > 0 && len(c.streams) >= int(c.maxStreams) {
		c.mu.Unlock()
		return nil, fmt.Errorf("netv3: stream cap %d reached", c.maxStreams)
	}
	c.nextStream++
	id := c.nextStream
	ch := make(chan *wire.StreamOpenResp, 1)
	c.openWaiters[id] = ch
	fw := c.fw
	c.mu.Unlock()

	class := wire.ClassForeground
	if cfg.Background {
		class = wire.ClassBackground
	}
	_ = fw.send(&wire.StreamOpen{
		Header: wire.Header{Stream: id},
		Class:  class, Weight: uint16(cfg.Weight), WantCreds: uint16(cfg.Credits),
	}, nil)

	timeout := c.cfg.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	var resp *wire.StreamOpenResp
	select {
	case resp = <-ch:
	case <-t.C:
		c.mu.Lock()
		delete(c.openWaiters, id)
		c.mu.Unlock()
		// A response that raced the delete is ignored by the reader.
		select {
		case resp = <-ch:
		default:
			return nil, fmt.Errorf("netv3: stream open timed out after %v", timeout)
		}
	}
	c.mu.Lock()
	delete(c.openWaiters, id)
	c.mu.Unlock()
	if err := respErr(resp.Status, resp.RetryAfterMS); err != nil {
		return nil, err
	}
	credits := int(resp.Credits)
	if credits <= 0 {
		credits = 1
	}
	st := &Stream{c: c, id: id, cfg: cfg, sem: make(chan struct{}, credits)}
	for i := 0; i < credits; i++ {
		st.sem <- struct{}{}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.streams[id] = st
	c.mu.Unlock()
	c.streamsOpen.Add(1)
	c.streamsOpened.Add(1)
	return st, nil
}

// StreamsSupported reports whether the connected server negotiated the
// stream feature.
func (c *Client) StreamsSupported() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.features&wire.FeatureStreams != 0
}

// MaxStreams returns the server's per-connection stream cap (0 when
// streams are off).
func (c *Client) MaxStreams() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.maxStreams)
}
