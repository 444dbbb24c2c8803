package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/workload"
)

// The traced run observes the stack from outside: spans and counts at
// the call boundaries the benchmark itself owns (its calls into the
// client, the vault and the page store, the listener it hands the
// server, and the block store it hands the server). Spans inside the
// program are a later issue.

type spanKind int

const (
	spOp         spanKind = iota // one benchmark op: submit → completion observed
	spSubmit                     // the ReadAsync/WriteAsync call
	spWait                       // the Pending.Wait call
	spVault                      // a blocking vvault Read/Write
	spPageRead                   // PageStore.ReadPage / ReadPages
	spPageWrite                  // PageStore.WritePage
	spPageFlush                  // PageStore.Flush
	spStoreRead                  // BlockStore.ReadAt under the server
	spStoreWrite                 // BlockStore.WriteAt
	spStoreSync                  // BlockStore.Sync
	nSpanKinds
	spNone spanKind = -1
)

var spanNames = [nSpanKinds]string{
	"op", "client.submit", "client.wait", "vvault.call",
	"pagestore.read", "pagestore.write", "pagestore.flush",
	"store.read", "store.write", "store.sync",
}

// span is one recorded interval. Parent is the span that caused it (0:
// none known — the store shim cannot see which request a store call
// serves); spans of one request share Op.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Op      uint64 `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer aggregates every span of the traced window per kind (count,
// total, and the part covered by child spans, so self = total − child)
// and keeps a systematic sample of raw spans in memory for the trace
// file. A nil tracer is the untraced run: every method no-ops.
type tracer struct {
	on   *atomic.Bool // the window's measuring flag
	base time.Time
	agg  [nSpanKinds]struct{ n, total, child atomic.Int64 }
	ids  atomic.Uint64

	mu   sync.Mutex
	kept []span
}

const (
	keepEvery = 64      // raw spans are kept for one op in keepEvery
	keepCap   = 1 << 17 // and never more than this many
)

func newTracer(on *atomic.Bool) *tracer {
	return &tracer{on: on, base: time.Now(), kept: make([]span, 0, keepCap)}
}

// newID allocates a span id (never 0).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record folds one finished span into the aggregates and, when keep is
// set, into the in-memory trace. parentKind is spNone for a root span.
func (t *tracer) record(kind, parentKind spanKind, id, parent, op uint64, start, end time.Time, keep bool) {
	if t == nil || !t.on.Load() {
		return
	}
	d := int64(end.Sub(start))
	a := &t.agg[kind]
	a.n.Add(1)
	a.total.Add(d)
	if parentKind != spNone {
		t.agg[parentKind].child.Add(d)
	}
	if !keep {
		return
	}
	t.mu.Lock()
	if len(t.kept) < keepCap {
		t.kept = append(t.kept, span{
			Name: spanNames[kind], ID: id, Parent: parent, Op: op,
			StartNS: int64(start.Sub(t.base)), EndNS: int64(end.Sub(t.base)),
		})
	}
	t.mu.Unlock()
}

// spanSummary is one kind's aggregate over the traced window.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	MeanUS  float64 `json:"mean_us"`
	SelfUS  float64 `json:"self_mean_us"`
	TotalMS float64 `json:"total_ms"`
}

func (t *tracer) summary() []spanSummary {
	var out []spanSummary
	for k := range t.agg {
		n := t.agg[k].n.Load()
		if n == 0 {
			continue
		}
		total, child := t.agg[k].total.Load(), t.agg[k].child.Load()
		out = append(out, spanSummary{
			Name: spanNames[k], Count: n,
			MeanUS:  float64(total) / float64(n) / 1e3,
			SelfUS:  float64(total-child) / float64(n) / 1e3,
			TotalMS: float64(total) / 1e6,
		})
	}
	return out
}

// writeFile writes the summary and the kept spans as one JSON document.
func (t *tracer) writeFile(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{
		"header":     header,
		"keep_every": keepEvery,
		"summary":    t.summary(),
		"spans":      t.kept,
	}
	t.mu.Unlock()
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// countListener counts the server side of every accepted connection:
// read and write calls (≈ kernel crossings on the socket) and bytes each
// way. It is handed to Server.ListenOn on the traced run only.
type countListener struct {
	net.Listener
	on                    *atomic.Bool
	readCalls, writeCalls atomic.Int64
	bytesIn, bytesOut     atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.on.Load() {
		c.l.readCalls.Add(1)
		c.l.bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.l.on.Load() {
		c.l.writeCalls.Add(1)
		c.l.bytesOut.Add(int64(n))
	}
	return n, err
}

// storeShim counts and times the BlockStore under a server. Wrapping the
// file store also makes the disk queue pick its portable backend, so the
// traced run's store numbers are the portable path's; the untraced run
// uses the bare store (io_uring where available).
type storeShim struct {
	netv3.BlockStore
	tr *tracer

	reads, writes, syncs    atomic.Int64
	bytesWritten            atomic.Int64
	readNS, writeNS, syncNS atomic.Int64
	inflight                atomic.Int64
	arrivals, inflightAtArr atomic.Int64 // Σ in-flight seen by each arriving call
	inflightMax             atomic.Int64
	calls                   atomic.Uint64 // drives the raw-span sample
}

func (s *storeShim) enter() (time.Time, bool) {
	n := s.inflight.Add(1)
	if !s.tr.on.Load() {
		return time.Time{}, false
	}
	s.arrivals.Add(1)
	s.inflightAtArr.Add(n)
	for {
		cur := s.inflightMax.Load()
		if n <= cur || s.inflightMax.CompareAndSwap(cur, n) {
			break
		}
	}
	return time.Now(), true
}

func (s *storeShim) leave(kind spanKind, start time.Time, counted bool, n, ns *atomic.Int64) {
	s.inflight.Add(-1)
	if !counted {
		return
	}
	end := time.Now()
	n.Add(1)
	ns.Add(int64(end.Sub(start)))
	s.tr.record(kind, spNone, s.tr.newID(), 0, 0, start, end, s.calls.Add(1)%keepEvery == 0)
}

func (s *storeShim) ReadAt(b []byte, off int64) error {
	t0, counted := s.enter()
	err := s.BlockStore.ReadAt(b, off)
	s.leave(spStoreRead, t0, counted, &s.reads, &s.readNS)
	return err
}

func (s *storeShim) WriteAt(b []byte, off int64) error {
	t0, counted := s.enter()
	err := s.BlockStore.WriteAt(b, off)
	if counted {
		s.bytesWritten.Add(int64(len(b)))
	}
	s.leave(spStoreWrite, t0, counted, &s.writes, &s.writeNS)
	return err
}

func (s *storeShim) Sync() error {
	t0, counted := s.enter()
	err := s.BlockStore.Sync()
	s.leave(spStoreSync, t0, counted, &s.syncs, &s.syncNS)
	return err
}

// pageShim times the engine's PageStore calls — the benchmark's call
// boundary on tpcc_mirror. It is in place on both runs (the untraced run
// needs the read latencies); spans are recorded on the traced run only.
type pageShim struct {
	workload.PageStore
	w     *window
	calls atomic.Uint64
}

func (p *pageShim) observe(kind spanKind, s *sampler, start time.Time) {
	if !p.w.measuring.Load() {
		return
	}
	end := time.Now()
	s.add(end.Sub(start))
	p.w.tr.record(kind, spNone, p.w.tr.newID(), 0, 0, start, end, p.calls.Add(1)%keepEvery == 0)
}

func (p *pageShim) ReadPage(off int64, buf []byte) error {
	t0 := time.Now()
	err := p.PageStore.ReadPage(off, buf)
	p.observe(spPageRead, p.w.read, t0)
	return err
}

func (p *pageShim) ReadPages(offs []int64, bufs [][]byte) error {
	t0 := time.Now()
	err := p.PageStore.ReadPages(offs, bufs)
	p.observe(spPageRead, p.w.read, t0)
	return err
}

func (p *pageShim) WritePage(off int64, data []byte) error {
	t0 := time.Now()
	err := p.PageStore.WritePage(off, data)
	p.observe(spPageWrite, p.w.write, t0)
	return err
}

func (p *pageShim) Flush() error {
	t0 := time.Now()
	err := p.PageStore.Flush()
	p.observe(spPageFlush, p.w.flush, t0)
	return err
}
