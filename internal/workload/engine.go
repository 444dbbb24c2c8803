package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/mqcache"
	"github.com/v3storage/v3/internal/obs"
)

// Config sizes one wall-clock workload engine over a PageStore.
type Config struct {
	// Store is the real storage path (required).
	Store PageStore
	// Kinds is the transaction mix (required): TPCCKinds() or a
	// SyntheticKind.
	Kinds []TxKind
	// Dist is the page distribution within a warehouse partition.
	Dist DistSpec
	// Arrival is the arrival process: closed-loop terminals by default,
	// open-loop Poisson or bursty.
	Arrival ArrivalSpec
	// Terminals is the number of concurrent transaction goroutines —
	// closed-loop terminals, or the executor pool draining open-loop
	// arrivals. Default 8.
	Terminals int
	// Warehouses partitions the data region; terminal t's home warehouse
	// is t mod Warehouses. Default 1.
	Warehouses int
	// WarehouseBase is the first warehouse index this engine drives.
	// Multi-client runs give each client engine a disjoint
	// [WarehouseBase, WarehouseBase+Warehouses) slice of one shared
	// volume layout; remote-warehouse touches stay within the client's
	// own slice. Default 0.
	WarehouseBase int
	// PagesPerWarehouse is each warehouse's data footprint in pages.
	// Default PagesPerWarehouse (scaled-down; see tpcc.go).
	PagesPerWarehouse int64
	// PageSize is the database page size. Default 8192.
	PageSize int
	// BufferPoolPages caps the engine's buffer pool. Default
	// Warehouses*PagesPerWarehouse/8 (a ~12% pool, the scaled shape of
	// the paper's Table 1 memory-to-data ratios).
	BufferPoolPages int
	// ReadBatch is the read-ahead batch: buffer-pool misses accumulate
	// and overlap through PageStore.ReadPages. Clamped to the store's
	// BatchLimit (the credit-window fan-out rule). Default 6.
	ReadBatch int
	// Cleaners is the write-behind pool draining dirty evictions.
	// Default 4.
	Cleaners int
	// GroupCommit is the log writer's flush cadence; commits also kick
	// the writer early when a full 64 KB log slot has accumulated.
	// Default 2ms.
	GroupCommit time.Duration
	// LogSlots sizes the sequential log region reserved at the start of
	// the volume (64 KB slots, written round-robin). Default 64.
	LogSlots int64
	// Seed makes the generators deterministic. Default 1.
	Seed int64
	// E2E, when non-nil, is snapshotted into the Result — the adapter's
	// caller-measured end-to-end histogram the stage breakdown is
	// checked against (pass the same Hist to NewNetStore/NewVaultStore).
	E2E *obs.Hist
	// Metrics, when non-nil, exports the engine's live instrumentation
	// on this registry: per-kind commit-latency histograms
	// (workload_tx_ns{kind=...}, measurement window only) and the
	// running counters (page refs, pool hits, physical reads/writes,
	// log flushes, aborted transactions, open-loop overflows). The same
	// numbers land in the Result at the end; the registry view exists
	// so a scrape or /debug/flightrec correlation can watch them move
	// while the run is still in flight. Nil is the disabled fast path.
	Metrics *obs.Registry
}

const logSlotBytes = 64 << 10

// errStopped ends a transaction that was cut off by shutdown.
var errStopped = errors.New("workload: engine stopped")

// Engine drives one workload over one PageStore. Create with New, run
// with Run; an Engine is single-shot.
type Engine struct {
	cfg   Config
	store PageStore
	kinds []TxKind
	wsum  int

	readBatch int
	dataPages int64 // (WarehouseBase+Warehouses) * PagesPerWarehouse

	// Buffer pool: page id -> residency, plus the dirty set, under one
	// mutex. Misses claim the frame before the physical read (concurrent
	// terminals do not double-read a page they both miss... they may,
	// rarely, in the window before the read lands; the claim makes the
	// second toucher a hit, which is the same forgiveness the sim engine
	// extends).
	mu    sync.Mutex
	pool  *mqcache.LRU
	dirty map[int64]bool

	cleanQ chan int64

	logMu      sync.Mutex
	logBytes   int
	logWaiters []chan struct{}
	logSlot    int64
	logKick    chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	arrivalC chan time.Time

	measuring atomic.Bool
	lat       []*obs.Hist // per-kind commit latency, measurement window only

	// srvAcc banks per-kind server-side stage time: each terminal
	// accumulates spans locally across one transaction's demand reads
	// (via a SpanView of the store) and folds them in at commit. Atomic
	// because terminals running the same kind commit concurrently.
	srvAcc []srvKindAcc

	physReads  atomic.Int64
	physWrites atomic.Int64
	logFlushes atomic.Int64
	refs       atomic.Int64
	hits       atomic.Int64
	errTx      atomic.Int64
	overflows  atomic.Int64 // open-loop arrivals dropped on a full queue

	snapAt [2]counterSnap // begin/end of the measurement window
}

// srvKindAcc is one tx kind's banked server-stage totals.
type srvKindAcc struct {
	n, sched, cpu atomic.Int64
}

func (a *srvKindAcc) fold(src *SrvSpanAcc) {
	if src.N == 0 {
		return
	}
	a.n.Add(src.N)
	a.sched.Add(src.SchedNS)
	a.cpu.Add(src.CPUNS)
}

type counterSnap struct {
	physReads, physWrites, logFlushes, refs, hits, errTx, overflows int64
}

func (e *Engine) snap() counterSnap {
	return counterSnap{
		physReads:  e.physReads.Load(),
		physWrites: e.physWrites.Load(),
		logFlushes: e.logFlushes.Load(),
		refs:       e.refs.Load(),
		hits:       e.hits.Load(),
		errTx:      e.errTx.Load(),
		overflows:  e.overflows.Load(),
	}
}

// New validates cfg, applies defaults, and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Store == nil {
		return nil, errors.New("workload: Config.Store is required")
	}
	if len(cfg.Kinds) == 0 {
		return nil, errors.New("workload: Config.Kinds is required")
	}
	if cfg.Terminals <= 0 {
		cfg.Terminals = 8
	}
	if cfg.Warehouses <= 0 {
		cfg.Warehouses = 1
	}
	if cfg.PagesPerWarehouse <= 0 {
		cfg.PagesPerWarehouse = PagesPerWarehouse
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 8192
	}
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = int(int64(cfg.Warehouses) * cfg.PagesPerWarehouse / 8)
		if cfg.BufferPoolPages < 64 {
			cfg.BufferPoolPages = 64
		}
	}
	if cfg.ReadBatch <= 0 {
		cfg.ReadBatch = 6
	}
	if cfg.Cleaners <= 0 {
		cfg.Cleaners = 4
	}
	if cfg.GroupCommit <= 0 {
		cfg.GroupCommit = 2 * time.Millisecond
	}
	if cfg.LogSlots <= 0 {
		cfg.LogSlots = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	wsum := 0
	for _, k := range cfg.Kinds {
		if k.Weight <= 0 {
			return nil, fmt.Errorf("workload: kind %q needs Weight > 0", k.Name)
		}
		wsum += k.Weight
	}
	if cfg.WarehouseBase < 0 {
		return nil, errors.New("workload: WarehouseBase must be >= 0")
	}
	dataPages := int64(cfg.WarehouseBase+cfg.Warehouses) * cfg.PagesPerWarehouse
	need := cfg.LogSlots*logSlotBytes + dataPages*int64(cfg.PageSize)
	if got := cfg.Store.Size(); got < need {
		return nil, fmt.Errorf("workload: volume too small: need %d bytes (%d log slots + %d pages), have %d",
			need, cfg.LogSlots, dataPages, got)
	}
	rb := cfg.ReadBatch
	if lim := cfg.Store.BatchLimit(); rb > lim {
		rb = lim // the fan-out clamp rule; see PageStore
	}
	e := &Engine{
		cfg:       cfg,
		store:     cfg.Store,
		kinds:     cfg.Kinds,
		wsum:      wsum,
		readBatch: rb,
		dataPages: dataPages,
		pool:      mqcache.NewLRU(cfg.BufferPoolPages),
		dirty:     make(map[int64]bool),
		cleanQ:    make(chan int64, 8192),
		logKick:   make(chan struct{}, 1),
		stop:      make(chan struct{}),
		lat:       make([]*obs.Hist, len(cfg.Kinds)),
		srvAcc:    make([]srvKindAcc, len(cfg.Kinds)),
	}
	for i := range e.lat {
		e.lat[i] = &obs.Hist{}
	}
	if r := cfg.Metrics; r != nil {
		// The per-kind hists double as the registry's: Observe feeds both
		// the live scrape and the end-of-run Result snapshot.
		for i, k := range cfg.Kinds {
			e.lat[i] = r.Hist(fmt.Sprintf(`workload_tx_ns{kind=%q}`, k.Name))
		}
		r.GaugeFunc("workload_page_refs_total", e.refs.Load)
		r.GaugeFunc("workload_pool_hits_total", e.hits.Load)
		r.GaugeFunc("workload_phys_reads_total", e.physReads.Load)
		r.GaugeFunc("workload_phys_writes_total", e.physWrites.Load)
		r.GaugeFunc("workload_log_flushes_total", e.logFlushes.Load)
		r.GaugeFunc("workload_tx_errors_total", e.errTx.Load)
		r.GaugeFunc("workload_arrival_overflows_total", e.overflows.Load)
	}
	return e, nil
}

// Run executes the workload: warmup (cold caches fill, counters and
// latency histograms discarded) then a measured window, and returns the
// Result. Single-shot; the engine cannot be reused after Run returns.
func (e *Engine) Run(warmup, measure time.Duration) (*Result, error) {
	arr, err := NewArrival(e.cfg.Arrival, rand.New(rand.NewSource(e.cfg.Seed)))
	if err != nil {
		return nil, err
	}
	if arr != nil {
		// Created before any terminal starts: terminals dispatch on the
		// channel's nil-ness to pick closed- vs open-loop behaviour.
		e.arrivalC = make(chan time.Time, 16384)
	}

	// One shared sequential cursor per warehouse keeps a scan-heavy
	// workload's reads actually sequential when several terminals share
	// a partition — the stream shape the server's prefetcher detects.
	var whSeq []Dist
	if e.cfg.Dist.Kind == DistSeq {
		whSeq = make([]Dist, e.cfg.Warehouses)
		for w := range whSeq {
			whSeq[w] = NewDist(e.cfg.Dist, nil, e.cfg.PagesPerWarehouse)
		}
	}

	for t := 0; t < e.cfg.Terminals; t++ {
		rng := rand.New(rand.NewSource(e.cfg.Seed + int64(t)*0x9E3779B9 + 1))
		wh := t % e.cfg.Warehouses
		var dist Dist
		if whSeq != nil {
			dist = SharedSeq(whSeq[wh])
		} else {
			dist = NewDist(e.cfg.Dist, rng, e.cfg.PagesPerWarehouse)
		}
		e.wg.Add(1)
		go e.terminal(t, wh, rng, dist)
	}
	for i := 0; i < e.cfg.Cleaners; i++ {
		e.wg.Add(1)
		go e.cleaner()
	}
	e.wg.Add(1)
	go e.logWriter()
	if arr != nil {
		e.wg.Add(1)
		go e.arrivals(arr)
	}

	time.Sleep(warmup)
	e.snapAt[0] = e.snap()
	e.measuring.Store(true)
	t0 := time.Now()
	time.Sleep(measure)
	e.measuring.Store(false)
	elapsed := time.Since(t0)
	e.snapAt[1] = e.snap()

	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
	return e.result(elapsed), nil
}

// arrivals is the open-loop generator: it walks wall-clock arrival
// times from the arrival process and queues each as a token. A full
// queue drops the token (counted) instead of blocking — an open loop
// that blocks on its own consumers has silently become a closed one.
func (e *Engine) arrivals(arr Arrival) {
	defer e.wg.Done()
	defer close(e.arrivalC)
	next := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for {
		next = next.Add(arr.Gap())
		d := time.Until(next)
		if d > 0 {
			timer.Reset(d)
			select {
			case <-e.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-e.stop:
				return
			default:
			}
		}
		select {
		case e.arrivalC <- next:
		default:
			e.overflows.Add(1)
		}
	}
}

// terminal is one transaction goroutine: a closed-loop terminal, or an
// open-loop executor draining the arrival queue.
func (e *Engine) terminal(id, wh int, rng *rand.Rand, dist Dist) {
	defer e.wg.Done()
	tx := newTxState(e, rng, dist, wh)
	for {
		var issued time.Time
		if e.arrivalC != nil {
			select {
			case <-e.stop:
				return
			case at, ok := <-e.arrivalC:
				if !ok {
					return
				}
				issued = at // open loop: latency includes queueing delay
			}
		} else {
			select {
			case <-e.stop:
				return
			default:
			}
			issued = time.Now()
		}
		ki := e.pickKind(rng)
		err := e.runTx(tx, &e.kinds[ki])
		switch {
		case err == errStopped:
			return
		case err != nil:
			e.errTx.Add(1)
		default:
			if e.measuring.Load() {
				e.lat[ki].Observe(time.Since(issued).Nanoseconds())
				e.srvAcc[ki].fold(&tx.acc)
			}
		}
		tx.acc = SrvSpanAcc{} // never leak one tx's spans into the next
		if think := e.cfg.Arrival.ThinkTime; think > 0 && e.arrivalC == nil {
			timer := time.NewTimer(think)
			select {
			case <-e.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
	}
}

func (e *Engine) pickKind(rng *rand.Rand) int {
	v := rng.Intn(e.wsum)
	for i, k := range e.kinds {
		if v < k.Weight {
			return i
		}
		v -= k.Weight
	}
	return len(e.kinds) - 1
}

// txState is a terminal's reusable per-transaction scratch: the pending
// miss batch and its page buffers, allocated once.
type txState struct {
	e    *Engine
	rng  *rand.Rand
	dist Dist
	wh   int

	pending []int64
	bufs    [][]byte

	// store is the terminal's view of the engine store: a SpanView
	// attributing demand-read server spans into acc when the adapter
	// supports it, else the shared store itself.
	store PageStore
	acc   SrvSpanAcc
}

func newTxState(e *Engine, rng *rand.Rand, dist Dist, wh int) *txState {
	bufs := make([][]byte, e.readBatch)
	for i := range bufs {
		bufs[i] = make([]byte, e.cfg.PageSize)
	}
	t := &txState{e: e, rng: rng, dist: dist, wh: wh, bufs: bufs, store: e.store}
	if sa, ok := e.store.(SpanAttributor); ok {
		t.store = sa.SpanView(&t.acc)
	}
	return t
}

// flush overlaps the pending miss batch through the store.
func (t *txState) flush() error {
	if len(t.pending) == 0 {
		return nil
	}
	offs := t.pending
	t.pending = t.pending[:0]
	t.e.physReads.Add(int64(len(offs)))
	return t.store.ReadPages(offs, t.bufs[:len(offs)])
}

// runTx executes one transaction: page touches through the buffer pool
// with read-ahead batching of misses, dirty marks for writes, and a
// group-commit log append.
func (e *Engine) runTx(t *txState, k *TxKind) error {
	touches := func(n int, write bool) error {
		for i := 0; i < n; i++ {
			select {
			case <-e.stop:
				return errStopped
			default:
			}
			if off, miss := e.touch(t, k, write); miss {
				t.pending = append(t.pending, off)
				if len(t.pending) >= e.readBatch {
					if err := t.flush(); err != nil {
						return err
					}
				}
			}
		}
		return t.flush()
	}
	if err := touches(k.Reads, false); err != nil {
		return err
	}
	if err := touches(k.Writes, true); err != nil {
		return err
	}
	if k.LogBytes > 0 {
		return e.commitLog(k.LogBytes)
	}
	return nil
}

// touch references one page through the buffer pool and returns its
// volume offset plus whether it missed (needs a physical read). A miss
// claims the frame immediately; a dirty eviction rides the cleaner
// queue, degrading to an inline write-through when the queue is full
// (backpressure instead of unbounded dirty backlog).
func (e *Engine) touch(t *txState, k *TxKind, write bool) (int64, bool) {
	wh := t.wh
	if k.Remote > 0 && e.cfg.Warehouses > 1 && t.rng.Float64() < k.Remote {
		wh = t.rng.Intn(e.cfg.Warehouses)
	}
	page := int64(e.cfg.WarehouseBase+wh)*e.cfg.PagesPerWarehouse + t.dist.Pick()%e.cfg.PagesPerWarehouse

	var cleanInline int64 = -1
	e.mu.Lock()
	e.refs.Add(1)
	hit, victim, evicted := e.pool.RefOrInsert(uint64(page))
	if hit {
		e.hits.Add(1)
	} else if evicted {
		vp := int64(victim)
		if e.dirty[vp] {
			delete(e.dirty, vp)
			select {
			case e.cleanQ <- vp:
			default:
				cleanInline = vp
			}
		}
	}
	if write {
		e.dirty[page] = true
	}
	e.mu.Unlock()

	if cleanInline >= 0 {
		e.writeBack(cleanInline, t.bufs[0][:0])
	}
	return e.pageOffset(page), !hit
}

// pageOffset maps a data page past the reserved log region.
func (e *Engine) pageOffset(page int64) int64 {
	return e.cfg.LogSlots*logSlotBytes + page*int64(e.cfg.PageSize)
}

// writeBack commits one dirty page to the store. buf is scratch; the
// engine is I/O-shape-faithful, not content-faithful, so the payload is
// whatever the scratch holds.
func (e *Engine) writeBack(page int64, scratch []byte) {
	buf := scratch
	if cap(buf) < e.cfg.PageSize {
		buf = make([]byte, e.cfg.PageSize)
	}
	buf = buf[:e.cfg.PageSize]
	e.physWrites.Add(1)
	if err := e.store.WritePage(e.pageOffset(page), buf); err != nil {
		e.errTx.Add(1)
	}
}

// cleaner drains dirty evictions until shutdown, then drains whatever
// is left in the queue so acked dirty state is not simply dropped.
func (e *Engine) cleaner() {
	defer e.wg.Done()
	buf := make([]byte, e.cfg.PageSize)
	for {
		select {
		case page := <-e.cleanQ:
			e.writeBack(page, buf)
		case <-e.stop:
			for {
				select {
				case page := <-e.cleanQ:
					e.writeBack(page, buf)
				default:
					return
				}
			}
		}
	}
}

// commitLog appends to the group-commit buffer and waits for the flush
// barrier that covers this commit. A full slot kicks the writer early.
func (e *Engine) commitLog(n int) error {
	ch := make(chan struct{})
	e.logMu.Lock()
	e.logBytes += n
	e.logWaiters = append(e.logWaiters, ch)
	kick := e.logBytes >= logSlotBytes
	e.logMu.Unlock()
	if kick {
		select {
		case e.logKick <- struct{}{}:
		default:
		}
	}
	select {
	case <-ch:
		return nil
	case <-e.stop:
		return errStopped
	}
}

// logWriter is the group-commit log stream: every GroupCommit interval
// (or sooner, when a slot's worth of bytes accumulated) it writes one
// 64 KB slot into the sequential log region and then issues the store's
// Flush barrier — commits are durable, not merely acknowledged, before
// their waiters wake. This is the real-path version of the sim engine's
// logWriter with the durability barrier the real stack actually has.
func (e *Engine) logWriter() {
	defer e.wg.Done()
	buf := make([]byte, logSlotBytes)
	tick := time.NewTicker(e.cfg.GroupCommit)
	defer tick.Stop()
	flush := func() {
		e.logMu.Lock()
		bytes, waiters := e.logBytes, e.logWaiters
		e.logBytes, e.logWaiters = 0, nil
		slot := e.logSlot % e.cfg.LogSlots
		if len(waiters) > 0 {
			e.logSlot++
		}
		e.logMu.Unlock()
		if bytes == 0 && len(waiters) == 0 {
			return
		}
		if err := e.store.WritePage(slot*logSlotBytes, buf); err == nil {
			if err := e.store.Flush(); err != nil {
				e.errTx.Add(1)
			}
		} else {
			e.errTx.Add(1)
		}
		e.logFlushes.Add(1)
		for _, ch := range waiters {
			close(ch)
		}
	}
	for {
		select {
		case <-tick.C:
			flush()
		case <-e.logKick:
			flush()
		case <-e.stop:
			flush()
			return
		}
	}
}

// result assembles the measurement window's Result.
func (e *Engine) result(elapsed time.Duration) *Result {
	r := &Result{Measure: elapsed}
	d0, d1 := e.snapAt[0], e.snapAt[1]
	r.PhysReads = d1.physReads - d0.physReads
	r.PhysWrites = d1.physWrites - d0.physWrites
	r.LogFlushes = d1.logFlushes - d0.logFlushes
	r.Refs = d1.refs - d0.refs
	r.Hits = d1.hits - d0.hits
	r.Errors = d1.errTx - d0.errTx
	r.Overflows = d1.overflows - d0.overflows
	for i, k := range e.kinds {
		a := &e.srvAcc[i]
		r.Kinds = append(r.Kinds, KindStat{
			Name: k.Name,
			Lat:  e.lat[i].Snapshot(),
			Srv: SrvStageStat{
				N:       a.n.Load(),
				SchedNS: a.sched.Load(),
				CPUNS:   a.cpu.Load(),
			},
		})
	}
	if e.cfg.E2E != nil {
		r.E2E = e.cfg.E2E.Snapshot()
	}
	r.finish()
	return r
}
