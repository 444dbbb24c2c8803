package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/vvault"
	"github.com/v3storage/v3/internal/workload"
)

// env is one booted, filled and warmed stack with its load attached.
type env interface {
	// start launches the load. It runs through warm-up and the window
	// until stop; the durations are the coordinator's (the transaction
	// engine needs them up front).
	start(warmup, measure time.Duration)
	// stop ends the load and waits for every op in flight.
	stop()
	// verify quiesces the stack (flush, and for the file workload close
	// and reopen) and returns how many blocks or replicas are wrong.
	verify() (bad int64, detail string)
	// close releases everything; safe after verify and on error paths.
	close()

	// progress is the number of ops completed inside the window so far.
	progress() int64

	servers() []*backend
	shapeUsed() *shape
	// clientStats and vaultStats are the client's and the vault's public
	// counters by field name; empty where the workload has no such layer.
	clientStats() stats
	vaultStats() stats
	// txResult is the transaction engine's report; nil on I/O workloads.
	txResult() *workload.Result
	// describe states the load in one line for the report.
	describe() string
}

// spec names one workload and how to set it up.
type spec struct {
	name  string
	why   string
	setup func(seed int64, w *window, dir string) (env, error)
}

const window16 = 16

// The four workloads. Names are final; later issues refer to them.
var specs = []spec{
	{
		name: "hit_read_8k",
		why:  "32 MB working set inside a 64 MB cache: wire, client, scheduler and cache-hit path do all the work; diskq, destage and store do none",
		setup: func(seed int64, w *window, dir string) (env, error) {
			return setupSingle(seed, w, dir, singleCfg{
				volBlocks: 8192, cacheBlocks: 8192, wsBlocks: 4096, prewarm: true,
			})
		},
	},
	{
		name: "miss_mixed_8k",
		why:  "256 MB real file, 16x the cache, 70/30 read/write: eviction, dirty pinning, destage, diskq and pread/pwrite/fsync dominate; the hit path is nearly idle",
		setup: func(seed int64, w *window, dir string) (env, error) {
			return setupSingle(seed, w, dir, singleCfg{
				file: true, volBlocks: 32768, cacheBlocks: 2048, wsBlocks: 32768,
				writePct: 30, flushEvery: 16384,
			})
		},
	},
	{
		name:  "mirror_rw_8k",
		why:   "vvault mirror over two servers, 50/50 read/write, 8 blocking callers: fan-out/join, repl log append+ack and volume mapping work, which single-server workloads bypass",
		setup: setupMirror,
	},
	{
		name:  "tpcc_mirror",
		why:   "TPC-C engine, 16 terminals, 2 warehouses over a mirrored vault: the only workload where buffer pool, cleaners and group-commit log + Flush do work",
		setup: setupTPCC,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// fillStamped writes version-0 stamps over the first blocks of store in
// 1 MB writes, then syncs once.
func fillStamped(store netv3.BlockStore, blocks int) error {
	const perChunk = (1 << 20) / blockSize
	chunk := make([]byte, perChunk*blockSize)
	for b := 0; b < blocks; b += perChunk {
		n := min(perChunk, blocks-b)
		for i := 0; i < n; i++ {
			fillBlock(chunk[i*blockSize:(i+1)*blockSize], uint64(b+i), 0)
		}
		if err := store.WriteAt(chunk[:n*blockSize], int64(b)*blockSize); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
	}
	if err := store.Sync(); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	return nil
}

// ---- single server: hit_read_8k and miss_mixed_8k ----

type singleCfg struct {
	file        bool // a real FileStore in the benchmark's temp dir, else RAM
	volBlocks   int
	cacheBlocks int
	wsBlocks    int  // working set: the first wsBlocks of the volume
	prewarm     bool // read the working set once in set-up
	writePct    int
	flushEvery  int // writes between non-blocking FlushAsync calls; 0: none
}

type singleEnv struct {
	cfg  singleCfg
	w    *window
	sh   shape
	be   *backend
	path string
	cl   *netv3.Client
	gen  *opGen

	halt atomic.Bool
	done chan struct{}
}

func setupSingle(seed int64, w *window, dir string, cfg singleCfg) (_ env, err error) {
	e := &singleEnv{cfg: cfg, w: w, done: make(chan struct{})}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	size := int64(cfg.volBlocks) * blockSize
	var store netv3.BlockStore
	if cfg.file {
		e.path = filepath.Join(dir, "volume.dat")
		fs, err := netv3.NewFileStore(e.path, size)
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = netv3.NewMemStore(size)
	}
	if err := fillStamped(store, cfg.wsBlocks); err != nil {
		store.Close()
		return nil, err
	}
	if e.be, err = startBackend(store, cfg.cacheBlocks, w, &e.sh); err != nil {
		store.Close()
		return nil, err
	}
	ccfg := netv3.DefaultClientConfig()
	ccfg.Metrics = w.reg
	if e.cl, err = netv3.Dial(e.be.addr, ccfg); err != nil {
		return nil, err
	}
	e.gen = newOpGen(seed, cfg.wsBlocks, cfg.writePct, make([]uint32, cfg.wsBlocks), make([]bool, cfg.wsBlocks), 0, 1)
	if cfg.prewarm {
		if err := e.preread(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// preread pulls the working set through the client once, checking it, so
// the server cache is warm before the clock starts.
func (e *singleEnv) preread() error {
	type slot struct {
		h   *netv3.Pending
		blk int
		buf []byte
	}
	slots := make([]slot, window16)
	for i := range slots {
		slots[i].buf = make([]byte, blockSize)
	}
	finish := func(s *slot) error {
		if err := s.h.Wait(); err != nil {
			return fmt.Errorf("warm read of block %d: %w", s.blk, err)
		}
		if !checkBlock(s.buf, uint64(s.blk), 0) {
			return fmt.Errorf("warm read of block %d returned %s", s.blk, describeBlock(s.buf))
		}
		s.h = nil
		return nil
	}
	for b := 0; b < e.cfg.wsBlocks; b++ {
		s := &slots[b%window16]
		if s.h != nil {
			if err := finish(s); err != nil {
				return err
			}
		}
		h, err := e.cl.ReadAsync(1, int64(b)*blockSize, s.buf)
		if err != nil {
			return fmt.Errorf("warm read of block %d: %w", b, err)
		}
		s.h, s.blk = h, b
	}
	for i := range slots {
		if slots[i].h != nil {
			if err := finish(&slots[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *singleEnv) start(_, _ time.Duration) { go e.drive() }

func (e *singleEnv) stop() {
	e.halt.Store(true)
	<-e.done
}

// drive is the one submitter: a ring of window16 slots, each holding one
// request in flight. A slot's request is waited for, timed and checked
// when the ring comes back round to it — a database session waiting for
// its page — and only then is the next request drawn. Closed loop.
func (e *singleEnv) drive() {
	defer close(e.done)
	type slot struct {
		h    *netv3.Pending
		o    op
		t0   time.Time
		buf  []byte
		seq  uint64 // op id
		span uint64 // op span id (traced run)
	}
	w, tr := e.w, e.w.tr
	slots := make([]slot, window16)
	for i := range slots {
		slots[i].buf = make([]byte, blockSize)
	}
	var flushH *netv3.Pending
	var flushT0 time.Time
	writesSinceFlush := 0

	finish := func(s *slot) {
		tw := time.Now()
		err := s.h.Wait()
		t1 := time.Now()
		ok := err == nil
		if !ok {
			w.fail("%s block %d: %v", opName(s.o), s.o.block, err)
		} else if !s.o.write && !e.gen.unknown[s.o.block] && !checkBlock(s.buf, s.o.block, s.o.version) {
			ok = false
			w.fail("read block %d: want version %d, got %s", s.o.block, s.o.version, describeBlock(s.buf))
		}
		if w.measuring.Load() {
			if s.o.write {
				w.write.add(t1.Sub(s.t0))
			} else {
				w.read.add(t1.Sub(s.t0))
			}
			if s.h.Traced() {
				w.tiledNS.Add(int64(t1.Sub(s.t0)))
				w.tiledN.Add(1)
			}
			keep := s.seq%keepEvery == 0
			tr.record(spWait, spOp, tr.newID(), s.span, s.seq, tw, t1, keep)
			tr.record(spOp, spNone, s.span, 0, s.seq, s.t0, t1, keep)
		}
		e.gen.done(s.o, !ok)
		s.h = nil
	}

	var seq uint64
	for !e.halt.Load() {
		s := &slots[seq%window16]
		if s.h != nil {
			finish(s)
		}
		if flushH != nil && flushH.Done() {
			if err := flushH.Wait(); err != nil {
				w.fail("flush: %v", err)
			} else if w.measuring.Load() {
				w.flush.add(time.Since(flushT0))
			}
			flushH = nil
		}
		s.o = e.gen.next()
		s.seq = seq
		s.span = tr.newID()
		off := int64(s.o.block) * blockSize
		var err error
		if s.o.write {
			fillBlock(s.buf, s.o.block, s.o.version)
		}
		s.t0 = time.Now()
		if s.o.write {
			s.h, err = e.cl.WriteAsync(1, off, s.buf)
			writesSinceFlush++
		} else {
			s.h, err = e.cl.ReadAsync(1, off, s.buf)
		}
		if err != nil {
			w.fail("submit %s block %d: %v", opName(s.o), s.o.block, err)
			e.gen.done(s.o, true)
			s.h = nil
			seq++
			continue
		}
		tr.record(spSubmit, spOp, tr.newID(), s.span, seq, s.t0, time.Now(), seq%keepEvery == 0)
		seq++
		if e.cfg.flushEvery > 0 && writesSinceFlush >= e.cfg.flushEvery && flushH == nil {
			writesSinceFlush = 0
			flushT0 = time.Now()
			if flushH, err = e.cl.FlushAsync(1); err != nil {
				w.fail("submit flush: %v", err)
				flushH = nil
			}
		}
	}
	for i := range slots {
		if slots[i].h != nil {
			finish(&slots[i])
		}
	}
	if flushH != nil {
		if err := flushH.Wait(); err != nil {
			w.fail("flush: %v", err)
		}
	}
}

func opName(o op) string {
	if o.write {
		return "write"
	}
	return "read"
}

// verify flushes, and on the file workload closes the server and checks
// the file through plain os calls, so what is checked is what reached
// the file, not what a cache would answer.
func (e *singleEnv) verify() (int64, string) {
	if err := e.cl.Flush(1); err != nil {
		return 1, fmt.Sprintf("final flush: %v", err)
	}
	readAt := e.be.store.ReadAt
	if e.cfg.file {
		e.cl.Close()
		e.be.close()
		if err := e.be.store.Close(); err != nil {
			return 1, fmt.Sprintf("close volume: %v", err)
		}
		f, err := os.Open(e.path)
		if err != nil {
			return 1, fmt.Sprintf("reopen volume: %v", err)
		}
		defer f.Close()
		readAt = func(b []byte, off int64) error {
			_, err := f.ReadAt(b, off)
			return err
		}
	}
	bad, first := verifyVolume(readAt, e.gen.versions, e.gen.unknown)
	return int64(bad), first
}

func (e *singleEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	if e.be != nil {
		e.be.close()
		e.be.store.Close() // a second close of the file store only returns an error
	}
	if e.path != "" {
		os.Remove(e.path)
	}
}

func (e *singleEnv) progress() int64            { return e.w.read.count() + e.w.write.count() }
func (e *singleEnv) servers() []*backend        { return []*backend{e.be} }
func (e *singleEnv) shapeUsed() *shape          { return &e.sh }
func (e *singleEnv) clientStats() stats         { return callStats(e.cl, "Stats") }
func (e *singleEnv) vaultStats() stats          { return stats{} }
func (e *singleEnv) txResult() *workload.Result { return nil }

func (e *singleEnv) describe() string {
	kind := "MemStore"
	if e.cfg.file {
		kind = "FileStore"
	}
	s := fmt.Sprintf("closed loop, 1 connection x window %d; %d MB %s, cache %d blocks, working set %d MB, %d%% writes",
		window16, e.cfg.volBlocks*blockSize>>20, kind, e.cfg.cacheBlocks, e.cfg.wsBlocks*blockSize>>20, e.cfg.writePct)
	if e.cfg.flushEvery > 0 {
		s += fmt.Sprintf("; FlushAsync every %d writes, one Flush at the end", e.cfg.flushEvery)
	}
	return s
}

// ---- mirrored vault: mirror_rw_8k ----

const (
	mirrorVolBlocks = 8192 // 64 MB per replica
	mirrorWSBlocks  = 4096 // 32 MB working set
	mirrorCallers   = 8
)

// startMirrorBackends boots two RAM-backed servers, filling the first
// stamped blocks of each identically.
func startMirrorBackends(w *window, sh *shape, cacheBlocks, stamped int) ([]*backend, error) {
	var bes []*backend
	for i := 0; i < 2; i++ {
		store := netv3.NewMemStore(mirrorVolBlocks * blockSize)
		if err := fillStamped(store, stamped); err != nil {
			closeBackends(bes)
			return nil, err
		}
		be, err := startBackend(store, cacheBlocks, w, sh)
		if err != nil {
			closeBackends(bes)
			return nil, err
		}
		bes = append(bes, be)
	}
	return bes, nil
}

func closeBackends(bes []*backend) {
	for _, be := range bes {
		be.close()
		be.store.Close()
	}
}

// replicasDiffer compares the two replicas' volumes byte for byte.
func replicasDiffer(bes []*backend) (int64, string) {
	const chunk = 1 << 20
	a, b := make([]byte, chunk), make([]byte, chunk)
	var bad int64
	var first string
	for off := int64(0); off < mirrorVolBlocks*blockSize; off += chunk {
		errA, errB := bes[0].store.ReadAt(a, off), bes[1].store.ReadAt(b, off)
		if errA == nil && errB == nil && bytes.Equal(a, b) {
			continue
		}
		if bad == 0 {
			first = fmt.Sprintf("replicas differ in [%d,+%d) (read errors: %v, %v)", off, chunk, errA, errB)
		}
		bad++
	}
	return bad, first
}

type mirrorEnv struct {
	w        *window
	sh       shape
	bes      []*backend
	v        *vvault.Vault
	versions []uint32
	unknown  []bool
	seed     int64

	halt atomic.Bool
	wg   sync.WaitGroup
}

func setupMirror(seed int64, w *window, _ string) (_ env, err error) {
	e := &mirrorEnv{w: w, seed: seed, versions: make([]uint32, mirrorWSBlocks), unknown: make([]bool, mirrorWSBlocks)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.bes, err = startMirrorBackends(w, &e.sh, 8192, mirrorWSBlocks); err != nil {
		return nil, err
	}
	cfg := vvault.DefaultConfig(vvault.ModeMirror)
	cfg.MemberSize = mirrorVolBlocks * blockSize
	cfg.Client.Metrics = w.reg
	cfg.Metrics = w.reg
	if e.v, err = vvault.Open([]string{e.bes[0].addr, e.bes[1].addr}, cfg); err != nil {
		return nil, err
	}
	// Warm: one checked pass over the working set through the vault.
	buf := make([]byte, blockSize)
	for b := 0; b < mirrorWSBlocks; b++ {
		if err := e.v.Read(int64(b)*blockSize, buf); err != nil {
			return nil, fmt.Errorf("warm read of block %d: %w", b, err)
		}
		if !checkBlock(buf, uint64(b), 0) {
			return nil, fmt.Errorf("warm read of block %d returned %s", b, describeBlock(buf))
		}
	}
	return e, nil
}

func (e *mirrorEnv) start(_, _ time.Duration) {
	for g := 0; g < mirrorCallers; g++ {
		e.wg.Add(1)
		go e.caller(g)
	}
}

func (e *mirrorEnv) stop() {
	e.halt.Store(true)
	e.wg.Wait()
}

// caller is one blocking session on the vault. Caller g owns the blocks
// congruent to g modulo the caller count, so no two ops in flight ever
// share a block and each caller's stream depends only on the seed.
func (e *mirrorEnv) caller(g int) {
	defer e.wg.Done()
	w, tr := e.w, e.w.tr
	gen := newOpGen(e.seed, mirrorWSBlocks, 50, e.versions, e.unknown, g, mirrorCallers)
	buf := make([]byte, blockSize)
	for seq := uint64(g); !e.halt.Load(); seq += mirrorCallers {
		o := gen.next()
		off := int64(o.block) * blockSize
		opStart := time.Now()
		if o.write {
			fillBlock(buf, o.block, o.version)
		}
		t0 := time.Now()
		var err error
		if o.write {
			err = e.v.Write(off, buf)
		} else {
			err = e.v.Read(off, buf)
		}
		t1 := time.Now()
		ok := err == nil
		if !ok {
			w.fail("%s block %d: %v", opName(o), o.block, err)
		} else if !o.write && !e.unknown[o.block] && !checkBlock(buf, o.block, o.version) {
			ok = false
			w.fail("read block %d: want version %d, got %s", o.block, o.version, describeBlock(buf))
		}
		if w.measuring.Load() {
			if o.write {
				w.write.add(t1.Sub(t0))
			} else {
				w.read.add(t1.Sub(t0))
			}
			keep := (seq/mirrorCallers)%keepEvery == 0
			span := tr.newID()
			tr.record(spVault, spOp, tr.newID(), span, seq, t0, t1, keep)
			tr.record(spOp, spNone, span, 0, seq, opStart, time.Now(), keep)
		}
		gen.done(o, !ok)
	}
}

func (e *mirrorEnv) verify() (int64, string) {
	if err := e.v.Flush(); err != nil {
		return 1, fmt.Sprintf("final flush: %v", err)
	}
	if bad, first := replicasDiffer(e.bes); bad > 0 {
		return bad, first
	}
	bad, first := verifyVolume(e.bes[0].store.ReadAt, e.versions, e.unknown)
	return int64(bad), first
}

func (e *mirrorEnv) close() {
	if e.v != nil {
		e.v.Close()
	}
	closeBackends(e.bes)
}

func (e *mirrorEnv) progress() int64            { return e.w.read.count() + e.w.write.count() }
func (e *mirrorEnv) servers() []*backend        { return e.bes }
func (e *mirrorEnv) shapeUsed() *shape          { return &e.sh }
func (e *mirrorEnv) clientStats() stats         { return stats{} }
func (e *mirrorEnv) txResult() *workload.Result { return nil }

func (e *mirrorEnv) vaultStats() stats {
	s := callStats(e.v, "Stats")
	s.add(callStats(e.v, "LogStatus"))
	return s
}

func (e *mirrorEnv) describe() string {
	return fmt.Sprintf("closed loop, %d blocking callers on vvault.Read/Write; mirror over 2 servers, %d MB MemStore each, cache 8192 blocks, working set %d MB, 50%% writes; one Flush at the end",
		mirrorCallers, mirrorVolBlocks*blockSize>>20, mirrorWSBlocks*blockSize>>20)
}

// ---- transaction engine over a mirrored vault: tpcc_mirror ----

type tpccEnv struct {
	w       *window
	sh      shape
	bes     []*backend
	store   workload.PageStore
	shut    func() error
	eng     *workload.Engine
	txHists []*obs.Hist

	res    *workload.Result
	runErr error
	done   chan struct{}
}

const (
	tpccTerminals  = 16
	tpccWarehouses = 2
)

func setupTPCC(seed int64, w *window, _ string) (_ env, err error) {
	e := &tpccEnv{w: w, done: make(chan struct{})}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.bes, err = startMirrorBackends(w, &e.sh, 2048, 0); err != nil {
		return nil, err
	}
	e.store, e.shut, err = workload.OpenStack(workload.StackConfig{
		Addrs:   []string{e.bes[0].addr, e.bes[1].addr},
		Mirror:  true,
		VolSize: mirrorVolBlocks * blockSize,
		Reg:     w.reg,
		E2E:     vaultE2E(w),
	})
	if err != nil {
		return nil, err
	}
	shim := &pageShim{PageStore: e.store, w: w}
	kinds := workload.TPCCKinds()
	engReg := obs.New() // the engine's own: only its commit counts are read, live
	for _, k := range kinds {
		e.txHists = append(e.txHists, engReg.Hist(fmt.Sprintf(`workload_tx_ns{kind=%q}`, k.Name)))
	}
	e.eng, err = workload.New(workload.Config{
		Store:       shim,
		Metrics:     engReg,
		Kinds:       kinds,
		Terminals:   tpccTerminals,
		Warehouses:  tpccWarehouses,
		GroupCommit: 2 * time.Millisecond,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	// Warm: pull the log and data regions the engine will touch through
	// the stack once, a batch at a time.
	const batch = 32
	const logSlots, logSlotBytes = 64, 64 << 10 // workload.Config defaults
	touched := logSlots*logSlotBytes/blockSize + tpccWarehouses*workload.PagesPerWarehouse
	offs := make([]int64, batch)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, blockSize)
	}
	for b := 0; b < touched; b += batch {
		for i := range offs {
			offs[i] = int64(b+i) * blockSize
		}
		if err := e.store.ReadPages(offs, bufs); err != nil {
			return nil, fmt.Errorf("warm read at block %d: %w", b, err)
		}
	}
	return e, nil
}

// vaultE2E is the histogram the VaultStore adapter records every vault
// call's caller-measured time into: the independent side of the tiling
// check on tpcc_mirror. Nil on the untraced run.
func vaultE2E(w *window) *obs.Hist {
	if w.reg == nil {
		return nil
	}
	return w.reg.Hist(histVaultE2E)
}

func (e *tpccEnv) start(warmup, measure time.Duration) {
	go func() {
		defer close(e.done)
		e.res, e.runErr = e.eng.Run(warmup, measure)
	}()
}

func (e *tpccEnv) stop() {
	<-e.done
	if e.runErr != nil {
		e.w.fail("engine: %v", e.runErr)
		return
	}
	if n := e.res.Errors + e.res.Overflows; n > 0 {
		e.w.failN(n, "engine reported %d errors, %d overflows", e.res.Errors, e.res.Overflows)
	}
}

func (e *tpccEnv) verify() (int64, string) {
	if err := e.store.Flush(); err != nil {
		return 1, fmt.Sprintf("final flush: %v", err)
	}
	return replicasDiffer(e.bes)
}

func (e *tpccEnv) close() {
	if e.shut != nil {
		e.shut()
	}
	closeBackends(e.bes)
}

func (e *tpccEnv) servers() []*backend        { return e.bes }
func (e *tpccEnv) shapeUsed() *shape          { return &e.sh }
func (e *tpccEnv) clientStats() stats         { return stats{} }
func (e *tpccEnv) txResult() *workload.Result { return e.res }

// progress is the number of transactions committed inside the engine's
// window so far, read from the per-kind histograms the engine exports.
func (e *tpccEnv) progress() int64 {
	var n int64
	for _, h := range e.txHists {
		n += h.Snapshot().Count()
	}
	return n
}

// vaultStats reads the vault's counters from the registry it exports
// them on: OpenStack keeps the vault itself private. Untraced runs have
// no registry and report none.
func (e *tpccEnv) vaultStats() stats {
	s := stats{}
	if e.w.reg == nil {
		return s
	}
	g := e.w.reg.Snapshot().Gauges
	for name, key := range map[string]string{
		"vvault_degraded_reads_total":   "DegradedReads",
		"vvault_degraded_writes_total":  "DegradedWrites",
		"vvault_repl_log_head":          "Head",
		"vvault_repl_log_depth":         "Records",
		"vvault_repl_log_folded_ranges": "Folded",
		"vvault_repl_fallbacks_total":   "Fallbacks",
	} {
		if v, ok := g[name]; ok {
			s[key] = float64(v)
		}
	}
	return s
}

func (e *tpccEnv) describe() string {
	return fmt.Sprintf("closed loop, workload.Engine with TPCCKinds, %d terminals, %d warehouses, default 1/8 buffer pool, 2 ms group commit; OpenStack mirror over 2 servers, %d MB MemStore each, cache 2048 blocks",
		tpccTerminals, tpccWarehouses, mirrorVolBlocks*blockSize>>20)
}
