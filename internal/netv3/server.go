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
	// CacheBlocks gives every volume a server-side MQ cache of that many
	// 8 KB blocks and, with it, the rest of the cached disk path:
	// write-behind destaging (a write is acknowledged once it is a dirty
	// cache block; Flush is the durability barrier) and sequential and
	// strided read-ahead. 0 serves every request straight from the store.
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

// DefaultServerConfig returns sensible defaults: 64 requests of 1 MB.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{Credits: 64, MaxXfer: 1 << 20}
}

// tuning holds the cached disk path's two fixed sizes. Every server built
// by NewServer runs the defaults; in-package tests hand newServer other
// values to park the destager or force the write-through fallback. A zero
// field selects its default.
type tuning struct {
	destageInterval time.Duration // background destage period (5 ms)
	dirtyHighWater  int           // dirty blocks before writes go through (CacheBlocks/2)
}

const cacheBlockSize = 8192

// sockBufSize sizes the bufio reader on each end of a connection.
const sockBufSize = 64 << 10

// volume is one exported store. A cached volume (CacheBlocks > 0) carries
// the whole cached disk path — cache, destager, prefetcher — and an
// uncached one none of it: the three are nil or non-nil together. Either
// way the store is the only disk interface.
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

// AddVolume exports store under the given volume ID.
func (s *Server) AddVolume(id uint32, store BlockStore) {
	s.addMu.Lock()
	defer s.addMu.Unlock()
	v := &volume{store: store}
	if s.cfg.CacheBlocks > 0 && !s.closed.Load() {
		v.cache = newBlockCache(s.cfg.CacheBlocks, s.pool)
		v.wb = newDestager(s, v)
		go v.wb.run(s.done)
		v.pf = newPrefetchWorker(v)
		go v.pf.run(s, s.done)
	}
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
		if v.cache != nil {
			h, m := v.cache.stats()
			hits += h
			misses += m
		}
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
// flight), severs every live session, and closes the listener.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.done)
	for _, v := range *s.volumes.Load() {
		if v.cache != nil {
			<-v.wb.stopped
			<-v.pf.stopped
		}
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
}

// session speaks the V3 protocol on one connection. Control messages are
// fixed 64-byte frames; write payloads follow their Write message, read
// payloads follow their Resp.
//
// There is one dispatch rule per request type. Work that is only a memcpy
// runs inline on this goroutine, reusing one decoded message and one
// response struct for the whole session: a read wholly resident in the
// cache, and a write absorbed as dirty cache blocks under the
// high-watermark. Everything that can touch the store — a read miss, a
// write past the watermark or to an uncached volume, a Flush — becomes a
// scheduler task, so a slow store call never stalls the frames queued
// behind it and the lane policy and admission control see all of it.
// Every response, from either side, goes through the session's frameWriter.
func (s *Server) session(conn net.Conn) {
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, sockBufSize)
	var frame [wire.ControlSize]byte
	msg, err := wire.ReadFrom(br)
	if err != nil {
		s.logf("netv3: handshake read: %v", err)
		return
	}
	connect, ok := msg.(*wire.Connect)
	if !ok {
		s.logf("netv3: expected Connect, got %v", wire.TypeOf(msg))
		return
	}
	credits := s.cfg.Credits
	if w := int(connect.WantCreds); w > 0 && w < credits {
		credits = w
	}
	w := newFrameWriter(conn, &s.wire, func() { conn.Close() })
	defer w.stop()
	// Feature negotiation: the reply carries the intersection of what the
	// client advertised and what this server speaks. An old client encodes
	// zeros in the (formerly padding) feature field, so the intersection is
	// empty and both sides keep the original protocol.
	resp := &wire.ConnectResp{
		Status: wire.StatusOK, Credits: uint16(credits),
		MaxXfer: s.cfg.MaxXfer, SessionID: uint64(s.boot)<<32 | uint64(s.nextSess.Add(1)),
		Features: connect.Features & wire.FeatureTrace,
	}
	if err := w.send(resp, nil); err != nil {
		return
	}
	s.sessActive.Add(1)
	defer s.sessActive.Add(-1)
	ss := &session{s: s, w: w, id: resp.SessionID}
	// One decoded Read and Write serve the whole session: the inline paths
	// finish with them before the next decode, and tasks take a copy.
	var rdMsg wire.Read
	var wrMsg wire.Write
	var obsTick uint // drives 1-in-traceSample dispatch timing
	for {
		t, err := wire.ReadFrame(br, &frame)
		if err != nil {
			if err != io.EOF {
				s.logf("netv3: session read: %v", err)
			}
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
			ss.enqueue(m.Header, m.ReqID, arr, func() { s.handleFlush(m, w, arr) })
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
// backlog-sized retry hint.
func (ss *session) enqueue(h wire.Header, id uint64, arr int64, run func()) bool {
	key := tenantKey(ss.id, h.Stream)
	ok, qd := ss.s.sched.tryEnqueue(key, h.Stream&wire.StreamBackground != 0, run)
	if !ok {
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

// read dispatches one Read. On a cached volume it feeds the sequential-
// read detector and serves a whole-range cache hit inline (a memcpy, zero
// heap allocations); a miss, an uncached volume, and every malformed
// request (whose error reply handleRead owns) become a scheduler task.
//
// arr is the traced request's arrival stamp (zero untraced): an inline
// hit reports zero queue wait, a task the real lane wait.
func (ss *session) read(m *wire.Read, arr int64) {
	s := ss.s
	v := s.lookup(m.Volume)
	if v != nil && v.cache != nil && m.Length <= s.cfg.MaxXfer &&
		checkStoreRange(v.store.Size(), int64(m.Offset), int(m.Length)) == nil {
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
	}
	mm := new(wire.Read)
	*mm = *m
	w := ss.w // the task outlives this call; it needs the writer, not the session
	ss.enqueue(m.Header, m.ReqID, arr, func() { s.handleRead(mm, w, arr) })
}

// write dispatches one Write whose payload (body, pool-owned) is already
// off the stream. On a cached volume under the dirty high-watermark it is
// absorbed into the cache as dirty blocks and acknowledged at once — the
// destager owns the store write, Flush is the durability barrier. Past
// the watermark, or on an uncached volume, the store write is a scheduler
// task.
func (ss *session) write(m *wire.Write, body []byte, arr int64) {
	s := ss.s
	if v := s.lookup(m.Volume); v != nil && v.cache != nil {
		if !v.wb.overWater() {
			st := wire.StatusOK
			if err := v.absorbWrite(body, int64(m.Offset)); err != nil {
				st = wire.StatusEIO
				s.logf("netv3: write-behind vol %d [%d,+%d): %v", m.Volume, m.Offset, m.Length, err)
			}
			s.served.Add(1)
			reply(ss.w, &ss.resp, m.Header, m.ReqID, st, 0, nil, arr, arr)
			s.pool.Put(body)
			return
		}
		// Over the watermark: this write goes through; prod the destager
		// to start catching up.
		v.wb.kickNow()
	}
	mm := new(wire.Write)
	*mm = *m
	w := ss.w
	if !ss.enqueue(m.Header, m.ReqID, arr, func() {
		s.handleWrite(mm, body, w, arr)
		s.pool.Put(body)
	}) {
		s.pool.Put(body)
	}
}

// handleRead is the read task: it serves one read on a scheduler worker,
// through the cache (filling misses from the store) when the volume has
// one. It also owns every read error reply.
//
// arr is the traced request's arrival stamp (zero untraced): the gap to
// task start is the span block's queue wait — the real lane wait.
func (s *Server) handleRead(m *wire.Read, w *frameWriter, arr int64) {
	start := traceArr(m.Trace)
	st := wire.StatusOK
	var body []byte
	switch v := s.lookup(m.Volume); {
	case v == nil:
		st = wire.StatusENoVolume
	// Validate the range up front: the cached path slices per-block
	// buffers from wire-supplied arithmetic, so a hostile offset (say,
	// MaxInt64) must be rejected before it reaches any buffer math.
	case m.Length > s.cfg.MaxXfer ||
		checkStoreRange(v.store.Size(), int64(m.Offset), int(m.Length)) != nil:
		st = wire.StatusEInval
	default:
		body = s.pool.Get(int(m.Length))
		var err error
		if v.cache != nil {
			err = v.cachedRead(body, int64(m.Offset))
		} else {
			err = v.store.ReadAt(body, int64(m.Offset))
		}
		if err != nil {
			st = wire.StatusEIO
			s.pool.Put(body)
			body = nil
			s.logf("netv3: read: %v", err)
		}
		s.served.Add(1)
	}
	reply(w, new(wire.Resp), m.Header, m.ReqID, st, 0, body, arr, start)
	s.pool.Put(body)
}

// handleWrite is the write task: the synchronous store write of a request
// the session loop could not absorb.
func (s *Server) handleWrite(m *wire.Write, body []byte, w *frameWriter, arr int64) {
	start := traceArr(m.Trace)
	st := wire.StatusOK
	if v := s.lookup(m.Volume); v == nil {
		st = wire.StatusENoVolume
	} else if err := v.write(body, int64(m.Offset)); err != nil {
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
	} else if err := v.flush(); err != nil {
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
	// the destagers; DestageBatchHist buckets runs by size: 1, 2, ≤4, ≤8,
	// ≤16, ≤32, ≤64 blocks.
	DestageRuns      int64
	DestagedBlocks   int64
	DestageBatchHist [destageHistBuckets]int64
	// WriteThroughFallbacks counts writes bounced to the synchronous path
	// at the dirty high-watermark.
	WriteThroughFallbacks int64
	PrefetchFills         int64 // blocks installed by read-ahead
	PrefetchHits          int64 // demand hits on those blocks
	PrefetchDropped       int64 // read-ahead requests dropped (worker busy)
}

// DiskStats returns cumulative disk-path counters.
func (s *Server) DiskStats() DiskStats {
	var d DiskStats
	for _, v := range *s.volumes.Load() {
		if v.cache == nil {
			continue
		}
		d.DirtyBlocks += v.cache.dirtyCount.Load()
		d.PrefetchFills += v.cache.prefFills.Load()
		d.PrefetchHits += v.cache.prefHits.Load()
		d.DestageRuns += v.wb.runs.Load()
		d.DestagedBlocks += v.wb.blocks.Load()
		for i := range v.wb.hist {
			d.DestageBatchHist[i] += v.wb.hist[i].Load()
		}
		d.WriteThroughFallbacks += v.wb.wtFallbacks.Load()
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

// tryCachedRead serves b entirely from resident cache blocks, reporting
// false (with b possibly partially filled) on any miss — the session
// loop's inline hit path, which never touches the store.
//
// A hit is counted three ways (the hit counter, the block's MQ reference,
// the read-ahead accounting), and a read that falls back is re-issued whole
// as a task that counts every block again. So a read over several blocks
// looks before it counts, and the hits are published only once the whole
// range has hit; a block evicted between the look and the copy leaves at
// most a stray MQ reference behind. One block needs no look: its hit is the
// whole range's, in one lock hold.
func (v *volume) tryCachedRead(b []byte, off int64) bool {
	// checkStoreRange, not a bare off+len comparison: off near MaxInt64
	// wraps end negative, which sails past `end > size` AND makes the
	// loop below run zero iterations — reporting a successful "hit" that
	// returned no bytes at all.
	if checkStoreRange(v.store.Size(), off, len(b)) != nil {
		return false
	}
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

// absorbWrite folds a write into the cache as dirty blocks — the
// write-behind acknowledge-then-destage path.
func (v *volume) absorbWrite(b []byte, off int64) error {
	if err := checkStoreRange(v.store.Size(), off, len(b)); err != nil {
		return err
	}
	end := off + int64(len(b))
	for cur := off; cur < end; {
		blk := uint64(cur / cacheBlockSize)
		within := cur % cacheBlockSize
		n := int64(cacheBlockSize - within)
		if end-cur < n {
			n = end - cur
		}
		if err := v.cache.absorb(v, blk, within, n, b[cur-off:cur-off+n]); err != nil {
			if err == errCacheBusy {
				// This block's shard has every slot pinned by uncommitted
				// state; commit the rest of the write through the
				// backpressure path. Already-absorbed blocks are dirty and
				// ordered by the destager as usual.
				return v.wb.writeThrough(b[cur-off:], cur)
			}
			return err
		}
		cur += n
	}
	return nil
}

// flush makes all acknowledged writes durable: drain write-behind state,
// then sync the store.
func (v *volume) flush() error {
	if v.cache != nil {
		return v.wb.flush()
	}
	return v.store.Sync()
}

// write commits b to the store. On a cached volume this is the slow
// synchronous path (past the dirty high-watermark), which must coordinate
// with the destager rather than write around dirty blocks.
func (v *volume) write(b []byte, off int64) error {
	if v.cache != nil {
		return v.wb.writeThrough(b, off)
	}
	return v.store.WriteAt(b, off)
}
