package netv3

import (
	"bufio"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// ServerConfig sizes a netv3 server.
type ServerConfig struct {
	// Credits is the flow-control window granted per session: how many
	// requests, each up to MaxXfer bytes, a client may have in flight.
	Credits int
	// MaxXfer bounds a single transfer.
	MaxXfer uint32
	// CacheBlocks sizes every volume's server-side MQ cache, in 8 KB
	// blocks. The cache carries the rest of the disk path with it:
	// write-behind destaging (a write is acknowledged once it is a dirty
	// cache block; Flush is the durability barrier) and sequential and
	// strided read-ahead. 0 selects 8192 (64 MB).
	CacheBlocks int
	// SchedWorkers sizes the shared request scheduler: a bounded pool of
	// that many workers drains per-tenant queues round-robin in two QoS
	// lanes (foreground client I/O, background-class streams such as
	// resync). 0 selects GOMAXPROCS; see sched.go.
	SchedWorkers int
	// AdmitLimit caps queued foreground scheduler tasks; beyond it requests
	// are refused with StatusEOverloaded plus a retry-after hint instead of
	// queueing without bound. 0 selects SchedWorkers*256.
	AdmitLimit int
	// Metrics, when non-nil, enables server-side instrumentation on this
	// registry: dispatch/scheduler-wait/destage/flush/prefetch latency
	// histograms plus gauge exports of the served/cache/pool/disk
	// counters. Nil is the disabled fast path.
	Metrics *obs.Registry
	// Flight, when non-nil, is the always-on flight recorder: dispatches,
	// sheds, destage and prefetch passes and flushes record fixed-size
	// events into its ring, and admission-control sheds auto-capture an
	// incident dump. Nil no-ops every site.
	Flight *obs.Flight
	// Logger receives connection-level errors; nil silences them.
	Logger *log.Logger
}

// DefaultServerConfig returns sensible defaults: 64 requests of 1 MB, and
// a 64 MB cache per volume.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{Credits: 64, MaxXfer: 1 << 20, CacheBlocks: defaultCacheBlocks}
}

const defaultCacheBlocks = 8192

// tuning holds the cached disk path's two fixed sizes. Every server built
// by NewServer runs the defaults; in-package tests hand newServer other
// values to park the destager or put writes over the watermark. A zero
// field selects its default.
type tuning struct {
	destageInterval time.Duration // background destage period (5 ms)
	dirtyHighWater  int           // dirty blocks before a write destages first (CacheBlocks/2)
}

const cacheBlockSize = 8192

// sockBufSize sizes the bufio reader on each end of a connection.
const sockBufSize = 64 << 10

// volume is one exported store and the disk path in front of it: cache,
// destager, prefetcher. The store is the only disk interface.
type volume struct {
	store BlockStore
	cache *blockCache
	wb    *destager       // dirty-block destaging
	pf    *prefetchWorker // read-ahead fills
}

// Server exports volumes over TCP.
type Server struct {
	cfg    ServerConfig
	tune   tuning
	pool   *bufpool.Pool
	om     *serverObs  // nil when cfg.Metrics is unset
	flight *obs.Flight // nil when cfg.Flight is unset; every Record no-ops
	sched  *sched

	// volumes is a copy-on-write map: lookups on the request hot path are
	// a single atomic load, with no lock shared across sessions. addMu
	// serializes the (rare) writers.
	volumes atomic.Pointer[map[uint32]*volume]
	addMu   sync.Mutex

	ln       net.Listener
	sessions atomic.Int64
	served   atomic.Int64
	nextSess atomic.Uint32
	// boot is this server process's incarnation, drawn once and carried in
	// the high half of every SessionID: a client that reconnects and meets
	// another one knows the volatile state its earlier acks relied on —
	// write-behind blocks not yet destaged — is gone (see Client.recover).
	boot uint32

	closed atomic.Bool
	done   chan struct{} // closed by Close; stops background goroutines

	// Live (not cumulative) session population — the gauge behind
	// netv3_srv_sessions_active.
	sessActive atomic.Int64

	// wire totals the response frames and socket writes of every session's
	// frameWriter — frames per write is the completion-batching factor.
	wire wireCounters

	// connMu/conns track live session sockets so Close can sever them;
	// without this a closed server would keep serving established
	// sessions and peers would never observe the shutdown.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	live   sync.WaitGroup // session goroutines; Close waits them out

	// fence admits each client's sessions in incarnation order (fence.go).
	fenceMu sync.Mutex
	fence   fence[*session]
}

// NewServer returns a server with no volumes; add them with AddVolume.
func NewServer(cfg ServerConfig) *Server { return newServer(cfg, tuning{}) }

func newServer(cfg ServerConfig, tune tuning) *Server {
	if cfg.Credits <= 0 {
		cfg.Credits = 64
	}
	if cfg.MaxXfer == 0 {
		cfg.MaxXfer = 1 << 20
	}
	if cfg.CacheBlocks <= 0 {
		cfg.CacheBlocks = defaultCacheBlocks
	}
	if cfg.SchedWorkers <= 0 {
		cfg.SchedWorkers = runtime.GOMAXPROCS(0)
	}
	if tune.destageInterval <= 0 {
		tune.destageInterval = 5 * time.Millisecond
	}
	if tune.dirtyHighWater <= 0 {
		tune.dirtyHighWater = max(cfg.CacheBlocks/2, 1)
	}
	s := &Server{cfg: cfg, tune: tune, pool: bufpool.New(), boot: max(rand.Uint32(), 1),
		done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.flight = cfg.Flight
	s.flight.SetKindNames(flightKindNames)
	s.volumes.Store(&map[uint32]*volume{})
	// The scheduler exists before the gauge funcs that read it are
	// registered: the registry may be scraped at any time.
	s.sched = newSched(s, cfg.SchedWorkers, cfg.AdmitLimit)
	s.om = newServerObs(cfg.Metrics, s)
	return s
}

// AddVolume exports store under the given volume ID, behind a cache of
// CacheBlocks blocks with its destager and read-ahead worker. On a closed
// server it does nothing: a closed server exports nothing and starts no
// goroutine.
func (s *Server) AddVolume(id uint32, store BlockStore) {
	s.addMu.Lock()
	defer s.addMu.Unlock()
	if s.closed.Load() {
		return
	}
	v := &volume{store: store, cache: newBlockCache(s.cfg.CacheBlocks, s.pool)}
	v.wb = newDestager(s, v)
	go v.wb.run(s.done)
	v.pf = newPrefetchWorker(v)
	go v.pf.run(s, s.done)
	old := *s.volumes.Load()
	next := make(map[uint32]*volume, len(old)+1)
	for k, ov := range old {
		next[k] = ov
	}
	next[id] = v
	s.volumes.Store(&next)
}

// lookup resolves a volume ID lock-free.
func (s *Server) lookup(id uint32) *volume {
	return (*s.volumes.Load())[id]
}

// VolumeSize returns the size of volume id, or 0 if absent.
func (s *Server) VolumeSize(id uint32) int64 {
	if v := s.lookup(id); v != nil {
		return v.store.Size()
	}
	return 0
}

// Served returns the number of requests completed.
func (s *Server) Served() int64 { return s.served.Load() }

// Sessions returns the number of sessions accepted.
func (s *Server) Sessions() int64 { return s.sessions.Load() }

// SessionsActive returns the number of sessions currently established.
func (s *Server) SessionsActive() int64 { return s.sessActive.Load() }

// CacheStats returns aggregate (hits, misses) across volumes.
func (s *Server) CacheStats() (hits, misses int64) {
	for _, v := range *s.volumes.Load() {
		h, m := v.cache.stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// PoolStats returns buffer-pool counters (zero when pooling is off).
func (s *Server) PoolStats() bufpool.Stats { return s.pool.Stats() }

// Listen binds addr and returns the bound address (use ":0" for an
// ephemeral port).
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// ListenOn adopts an existing listener instead of binding a fresh
// socket — the hook that lets a fault injector (internal/faultnet)
// interpose on every session a test server accepts. Call Serve after.
func (s *Server) ListenOn(ln net.Listener) {
	s.ln = ln
}

// Serve accepts sessions until Close. Call after Listen.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.live.Add(1)
		s.connMu.Unlock()
		s.sessions.Add(1)
		go s.session(conn)
	}
}

// ListenAndServe combines Listen and Serve on addr.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, stops the background disk-path goroutines
// (waiting out the destager's final pass and any read-ahead fill in
// flight), severs every live session and waits until each has ended, and
// closes the listener.
func (s *Server) Close() error {
	// Under addMu, so every volume AddVolume exports, and every goroutine
	// it starts, is in the map read below.
	s.addMu.Lock()
	closing := s.closed.CompareAndSwap(false, true)
	s.addMu.Unlock()
	if !closing {
		return nil
	}
	close(s.done)
	for _, v := range *s.volumes.Load() {
		<-v.wb.stopped
		<-v.pf.stopped
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.connMu.Unlock()
	// The scheduler closes last: by this point the conns are severed, so
	// the drain is short; a session racing the shutdown sees tryEnqueue
	// refuse and answers EOverloaded on a socket that is already closing.
	s.sched.close()
	s.live.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// obsDispatch folds one session-loop dispatch — frame decoded → response
// queued or task enqueued — into the dispatch histogram. t0 is zero when
// metrics are off or the request fell outside the sample, making the
// disabled case a single branch.
func (s *Server) obsDispatch(t0 int64) {
	if t0 != 0 {
		s.om.dispatch.Observe(obs.Now() - t0)
	}
}

// session is one connection's protocol state, owned by its session
// goroutine: the sequential-read detector and the response struct every
// reply the loop sends itself reuses. It keeps nothing per logical stream:
// a frame's stream id is its scheduler tenant, and the id's top bit its
// lane.
type session struct {
	s    *Server
	w    *frameWriter
	id   uint64
	pf   prefetcher
	resp wire.Resp // reused by inline replies and sheds

	// The fence's handle on the session (see quiesce): fenced stops its
	// loop, tasks counts the scheduler tasks it has started and not
	// finished, and done closes once both are over and it has left the
	// fence.
	conn   net.Conn
	fenced atomic.Bool
	tasks  sync.WaitGroup
	done   chan struct{}
}

// quiesce stops ss for good on behalf of a newer incarnation of its
// client: its loop decodes no further frame — what it has buffered is
// dropped — and quiesce returns once the loop has exited (so its inline
// path is past its last absorb) and every scheduler task it started has
// finished.
func (ss *session) quiesce() {
	ss.fenced.Store(true)
	ss.conn.Close()
	<-ss.done
}

// session speaks the V3 protocol on one connection. Control messages are
// fixed 64-byte frames; write payloads follow their Write message, read
// payloads follow their Resp.
//
// There is one dispatch rule per request type. Work that is only a memcpy
// runs inline on this goroutine, reusing one decoded message and one
// response struct for the whole session: a read wholly resident in the
// cache, and a write absorbed as dirty cache blocks that are resident or
// wholly covered, in shards with room, under the high-watermark.
// So does the error reply to a request for no volume or outside it.
// Everything that can touch the store — a read miss, the rest of any
// other write, a Flush — becomes a scheduler task, so a slow store call
// never stalls the frames queued behind it and the lane policy and
// admission control see all of it.
// Every response, from either side, goes through the session's frameWriter.
func (s *Server) session(conn net.Conn) {
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.live.Done()
	}()
	br := bufio.NewReaderSize(conn, sockBufSize)
	var frame [wire.ControlSize]byte
	msg, err := wire.ReadFrom(br)
	connect, ok := msg.(*wire.Connect)
	if !ok {
		s.logf("netv3: handshake: expected Connect, got %T (%v)", msg, err)
		return
	}
	// Admission: the sessions of an older incarnation of this client go
	// quiet before this one answers, let alone serves a frame.
	ss := &session{s: s, id: uint64(s.boot)<<32 | uint64(s.nextSess.Add(1)), conn: conn, done: make(chan struct{})}
	s.fenceMu.Lock()
	stale, ok := s.fence.admit(connect.ClientID, connect.Incarnation, ss)
	s.fenceMu.Unlock()
	if !ok {
		s.logf("netv3: client %#x incarnation %d refused: a later one was admitted", connect.ClientID, connect.Incarnation)
		return
	}
	defer func() {
		ss.tasks.Wait()
		s.fenceMu.Lock()
		s.fence.leave(connect.ClientID, ss)
		s.fenceMu.Unlock()
		close(ss.done)
	}()
	for _, o := range stale {
		o.quiesce()
	}
	if ss.fenced.Load() { // a still newer incarnation arrived meanwhile
		return
	}
	w := newFrameWriter(conn, &s.wire, func() { conn.Close() })
	defer w.stop()
	ss.w = w // before the loop's first task can need it
	resp := &wire.ConnectResp{Status: wire.StatusOK, Credits: uint16(s.cfg.Credits),
		MaxXfer: s.cfg.MaxXfer, SessionID: ss.id}
	if err := w.send(resp, nil); err != nil {
		return
	}
	s.sessActive.Add(1)
	defer s.sessActive.Add(-1)
	// One decoded Read and Write serve the whole session: the inline paths
	// finish with them before the next decode, and tasks take a copy.
	var rdMsg wire.Read
	var wrMsg wire.Write
	var obsTick uint // drives 1-in-traceSample dispatch timing
	for {
		t, err := wire.ReadFrame(br, &frame)
		if err != nil {
			if err != io.EOF && !ss.fenced.Load() {
				s.logf("netv3: session read: %v", err)
			}
			return
		}
		if ss.fenced.Load() { // quiesced: what is buffered is dropped
			return
		}
		// Dispatch start stamp; zero when metrics are off or this request
		// falls outside the 1-in-traceSample sample.
		var dt0 int64
		if s.om != nil {
			if obsTick%traceSample == 0 {
				dt0 = obs.Now()
			}
			obsTick++
		}
		switch t {
		case wire.TRead:
			m := &rdMsg
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			arr := traceArr(m.Trace)
			s.flight.Record(fkDispatch, m.Trace, uint64(t), uint64(m.Volume))
			ss.read(m, arr)
			s.obsDispatch(dt0)
		case wire.TWrite:
			m := &wrMsg
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			// The payload follows the control message on the stream and
			// must be drained before the next frame. The window is the
			// client's to keep; MaxXfer bounds what one frame can make this
			// loop stage.
			if m.Length > s.cfg.MaxXfer {
				s.logf("netv3: oversized write %d", m.Length)
				return
			}
			body := s.pool.Get(int(m.Length))
			if _, err := io.ReadFull(br, body); err != nil {
				s.pool.Put(body)
				return
			}
			arr := traceArr(m.Trace)
			s.flight.Record(fkDispatch, m.Trace, uint64(t), uint64(m.Volume))
			ss.write(m, body, arr)
			s.obsDispatch(dt0)
		case wire.TFlush:
			m := new(wire.Flush)
			if err := wire.UnmarshalInto(frame[:], m); err != nil {
				return
			}
			arr := traceArr(m.Trace)
			s.flight.Record(fkDispatch, m.Trace, uint64(t), uint64(m.Volume))
			// Flush rides the scheduler like any other foreground op — a
			// durability barrier is latency-sensitive to its issuer. The
			// worker running it may block in destage+fsync, which is safe:
			// the pass never waits on another scheduler task.
			ss.enqueue(m.Header, m.ReqID, arr, func() { s.handleFlush(m, w, arr); ss.tasks.Done() })
			s.obsDispatch(dt0)
		case wire.TPing:
			_ = w.send(&wire.Pong{}, nil)
		case wire.TDisconnect:
			return
		default:
			s.logf("netv3: unexpected %v", t)
			return
		}
	}
}

// enqueue hands run, the task serving request id, to the scheduler under
// the request's stream id h.Stream — the tenant, whose top bit picks the
// lane — and reports whether the scheduler took it. A refusal by admission
// control (or a closing scheduler) is answered here: EOverloaded with the
// backlog-sized retry hint. run ends with ss.tasks.Done().
func (ss *session) enqueue(h wire.Header, id uint64, arr int64, run func()) bool {
	key := tenantKey(ss.id, h.Stream)
	ss.tasks.Add(1)
	ok, qd := ss.s.sched.tryEnqueue(key, h.Stream&wire.StreamBackground != 0, run)
	if !ok {
		ss.tasks.Done()
		ss.s.noteShed(h.Trace, key, qd)
		reply(ss.w, &ss.resp, h, id, wire.StatusEOverloaded, ss.s.sched.retryAfterMS(qd), nil, arr, arr)
	}
	return ok
}

// reply is the one way a response leaves the server: the Resp answering
// request id, whose header is h, on w — status st, the shed hint retryMS,
// and body, a read's data (nil for everything else), after it. A traced
// request's Resp (h.Trace != 0) echoes the trace id and carries the span
// block: queue wait from arrival arr to service start start, service time
// from start to now; an inline reply passes arr for both. r is scratch the
// caller owns — the session's for what its loop answers, a task's own for
// what a worker does — and w.send copies it before returning.
func reply(w *frameWriter, r *wire.Resp, h wire.Header, id uint64, st wire.Status, retryMS uint16, body []byte, arr, start int64) {
	*r = wire.Resp{Header: wire.Header{Stream: h.Stream}, ReqID: id, Status: st,
		Length: uint32(len(body)), RetryAfterMS: retryMS}
	if h.Trace != 0 {
		r.Trace = h.Trace
		r.SrvQueueNS = clamp32(start - arr)
		r.SrvServiceNS = clamp32(obs.Now() - start)
	}
	_ = w.send(r, body)
}

// target resolves the volume a read or write of n bytes at off addresses
// and validates the range once, before any of it reaches buffer or block
// arithmetic (a hostile offset, say MaxInt64, must not): ENoVolume for an
// unknown volume, EInval for a transfer over MaxXfer or outside the
// volume.
func (s *Server) target(vol uint32, off uint64, n uint32) (*volume, wire.Status) {
	v := s.lookup(vol)
	switch {
	case v == nil:
		return nil, wire.StatusENoVolume
	case n > s.cfg.MaxXfer || checkStoreRange(v.store.Size(), int64(off), int(n)) != nil:
		return nil, wire.StatusEInval
	}
	return v, wire.StatusOK
}

// read dispatches one Read. It answers a malformed request inline, feeds
// the sequential-read detector and serves a whole-range cache hit inline
// (a memcpy, zero heap allocations); a miss becomes a scheduler task.
//
// arr is the traced request's arrival stamp (zero untraced): an inline
// hit reports zero queue wait, a task the real lane wait.
func (ss *session) read(m *wire.Read, arr int64) {
	s := ss.s
	v, st := s.target(m.Volume, m.Offset, m.Length)
	if st != wire.StatusOK {
		reply(ss.w, &ss.resp, m.Header, m.ReqID, st, 0, nil, arr, arr)
		return
	}
	blks, cancel, ok := ss.pf.observe(m.Volume, int64(m.Offset), int64(m.Length))
	if len(cancel) > 0 {
		v.cache.prefetchDiscard(cancel)
	}
	if ok {
		v.pf.submit(blks)
	}
	body := s.pool.Get(int(m.Length))
	if v.tryCachedRead(body, int64(m.Offset)) {
		s.served.Add(1)
		reply(ss.w, &ss.resp, m.Header, m.ReqID, wire.StatusOK, 0, body, arr, arr)
		s.pool.Put(body)
		return
	}
	s.pool.Put(body)
	mm := new(wire.Read)
	*mm = *m
	ss.enqueue(m.Header, m.ReqID, arr, func() { s.handleRead(v, mm, ss.w, arr); ss.tasks.Done() })
}

// write dispatches one Write whose payload (body, pool-owned) is already
// off the stream. It answers a malformed request inline, then absorbs
// what it can with a bare memcpy and acknowledges the write once all of
// it is in — the destager owns the store write, Flush is the durability
// barrier. What is left, from the first block that needs a store fill or
// has no room, is a scheduler task.
func (ss *session) write(m *wire.Write, body []byte, arr int64) {
	s := ss.s
	v, st := s.target(m.Volume, m.Offset, m.Length)
	if st != wire.StatusOK {
		reply(ss.w, &ss.resp, m.Header, m.ReqID, st, 0, nil, arr, arr)
		s.pool.Put(body)
		return
	}
	rest, off := body, int64(m.Offset)
	err := errCacheBusy
	if !v.wb.overWater() {
		var n int
		n, err = v.absorbWrite(body, off, false)
		rest, off = body[n:], off+int64(n)
	}
	if err == nil {
		s.served.Add(1)
		reply(ss.w, &ss.resp, m.Header, m.ReqID, wire.StatusOK, 0, nil, arr, arr)
		s.pool.Put(body)
		return
	}
	if err == errCacheBusy {
		v.wb.pressured.Add(1)
	}
	mm := new(wire.Write)
	*mm = *m
	if !ss.enqueue(m.Header, m.ReqID, arr, func() {
		s.handleWrite(v, mm, rest, off, ss.w, arr)
		s.pool.Put(body)
		ss.tasks.Done()
	}) {
		s.pool.Put(body)
	}
}

// handleRead is the read task: it serves one read of v, whose range
// session.read validated, on a scheduler worker, through the cache,
// filling misses from the store.
//
// arr is the traced request's arrival stamp (zero untraced): the gap to
// task start is the span block's queue wait — the real lane wait.
func (s *Server) handleRead(v *volume, m *wire.Read, w *frameWriter, arr int64) {
	start := traceArr(m.Trace)
	st := wire.StatusOK
	body := s.pool.Get(int(m.Length))
	if err := v.cachedRead(body, int64(m.Offset)); err != nil {
		st = wire.StatusEIO
		s.pool.Put(body)
		body = nil
		s.logf("netv3: read: %v", err)
	}
	s.served.Add(1)
	reply(w, new(wire.Resp), m.Header, m.ReqID, st, 0, body, arr, start)
	s.pool.Put(body)
}

// handleWrite is the write task: it absorbs b, the part of request m's
// payload the session loop could not, at off in v.
func (s *Server) handleWrite(v *volume, m *wire.Write, b []byte, off int64, w *frameWriter, arr int64) {
	start := traceArr(m.Trace)
	st := wire.StatusOK
	if err := v.absorbBehind(b, off); err != nil {
		st = wire.StatusEIO
		s.logf("netv3: write: %v", err)
	}
	s.served.Add(1)
	reply(w, new(wire.Resp), m.Header, m.ReqID, st, 0, nil, arr, start)
}

// noteShed records an admission-control refusal in the flight recorder
// and auto-captures an incident dump — an overload is exactly the moment
// the ring's recent history is worth keeping.
func (s *Server) noteShed(trace, key uint64, backlog int) {
	if s.flight == nil {
		return
	}
	s.flight.Record(fkShed, trace, key, uint64(backlog))
	s.flight.Incident("sched-shed")
}

// handleFlush serves the wire-level durability barrier: drain the
// volume's write-behind state and fsync the store. Writes acknowledged
// before the Flush was received are durable once it succeeds.
func (s *Server) handleFlush(m *wire.Flush, w *frameWriter, arr int64) {
	var t0 int64
	if s.om != nil || s.flight != nil {
		t0 = obs.Now()
	}
	start := traceArr(m.Trace)
	st := wire.StatusOK
	if v := s.lookup(m.Volume); v == nil {
		st = wire.StatusENoVolume
	} else if err := v.wb.flush(); err != nil {
		st = wire.StatusEIO
		s.logf("netv3: flush vol %d: %v", m.Volume, err)
	}
	if t0 != 0 {
		d := obs.Now() - t0
		if s.om != nil {
			s.om.flushDur.Observe(d)
		}
		s.flight.Record(fkFlush, m.Trace, uint64(m.Volume), uint64(d))
	}
	s.served.Add(1)
	reply(w, new(wire.Resp), m.Header, m.ReqID, st, 0, nil, arr, start)
}

// DiskStats aggregates the cached disk path's counters across volumes.
type DiskStats struct {
	// DirtyBlocks is the volume of acked but not yet committed
	// write-behind data, in 8 KB blocks.
	DirtyBlocks int64
	// DestageRuns / DestagedBlocks count coalesced store writes issued by
	// the destagers and the blocks they carried.
	DestageRuns    int64
	DestagedBlocks int64
	// PressuredWrites counts writes the session loop handed to a worker
	// for want of room: the dirty set at its high-watermark, or a shard
	// pinned wall to wall.
	PressuredWrites int64
	PrefetchFills   int64 // blocks installed by read-ahead
	PrefetchHits    int64 // demand hits on those blocks
	PrefetchDropped int64 // read-ahead requests dropped (worker busy)
}

// DiskStats returns cumulative disk-path counters.
func (s *Server) DiskStats() DiskStats {
	var d DiskStats
	for _, v := range *s.volumes.Load() {
		d.DirtyBlocks += v.cache.dirtyCount.Load()
		d.PrefetchFills += v.cache.prefFills.Load()
		d.PrefetchHits += v.cache.prefHits.Load()
		d.DestageRuns += v.wb.runs.Load()
		d.DestagedBlocks += v.wb.blocks.Load()
		d.PressuredWrites += v.wb.pressured.Load()
		d.PrefetchDropped += v.pf.dropped.Load()
	}
	return d
}

// cachedRead serves aligned 8 KB blocks from the sharded MQ cache,
// filling misses from the store; each block touches only its own shard
// lock.
func (v *volume) cachedRead(b []byte, off int64) error {
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if err := v.cache.readBlock(v, blk, within, n, b[cur-off:cur-off+n]); err != nil {
			return err
		}
		cur += n
	}
	return nil
}

// tryCachedRead serves b, whose range the caller validated, entirely from
// resident cache blocks, reporting false (with b possibly partially
// filled) on any miss — the session loop's inline hit path, which never
// touches the store.
//
// A hit is counted three ways (the hit counter, the block's MQ reference,
// the read-ahead accounting), and a read that falls back is re-issued whole
// as a task that counts every block again. So a read over several blocks
// looks before it counts, and the hits are published only once the whole
// range has hit; a block evicted between the look and the copy leaves at
// most a stray MQ reference behind. One block needs no look: its hit is the
// whole range's, in one lock hold.
func (v *volume) tryCachedRead(b []byte, off int64) bool {
	end := off + int64(len(b))
	first, last := uint64(off/cacheBlockSize), uint64((end-1)/cacheBlockSize)
	if first < last && !v.cache.resident(first, last) {
		return false
	}
	hits := int64(0)
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if !v.cache.readBlockHit(blk, within, n, b[cur-off:cur-off+n]) {
			return false
		}
		cur += n
		hits++
	}
	v.cache.hits.Add(hits)
	return true
}

// absorbWrite folds a write, whose range the caller validated, into the
// cache as dirty blocks — the write-behind acknowledge-then-destage path —
// and returns how many of its bytes are in. It stops at the first block
// that has no room (errCacheBusy) or, without fill, needs a store fill
// (errNeedsFill).
func (v *volume) absorbWrite(b []byte, off int64, fill bool) (int, error) {
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if err := v.cache.absorb(v, blk, within, n, b[cur-off:cur-off+n], fill); err != nil {
			return int(cur - off), err
		}
		cur += n
	}
	return len(b), nil
}

// absorbBehind is the worker's half of a cached write: it absorbs b at
// off, filling partial blocks from the store, and makes room whenever
// there is none — over the high-watermark, or in a shard pinned wall to
// wall — by running a destage pass itself before it absorbs again. A pass
// that fails and leaves no room refuses the write; its error stays sticky
// for the next Flush.
func (v *volume) absorbBehind(b []byte, off int64) error {
	for pass := v.wb.overWater(); ; pass = true {
		var perr error
		if pass {
			perr = v.wb.destageAll()
		}
		n, err := v.absorbWrite(b, off, true)
		if err != errCacheBusy {
			return err
		}
		if perr != nil {
			return perr
		}
		b, off = b[n:], off+int64(n)
	}
}
