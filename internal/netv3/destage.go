package netv3

import (
	"cmp"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// maxDestageRun caps one coalesced destage write at 64 blocks (512 KB
// with 8 KB blocks) — large enough to amortize per-I/O cost, small
// enough to bound staging-buffer size and store-write latency.
const maxDestageRun = 64

// destager is the per-volume write-behind engine, the TCP-path analogue
// of the paper's pipelined disk manager (Section 3.2): writes are
// absorbed into the cache as dirty blocks and acknowledged immediately,
// while this background component coalesces adjacent dirty blocks into
// large contiguous store writes. Durability is explicit — the Flush wire
// op drains the dirty set and fsyncs — exactly the contract a database
// log manager wants from a storage server.
//
// mu is the destage mutex, held for a whole destage pass. A block's store
// bytes change only in a pass, while the block is pinned and resident
// (dirty → flushing → clean, each move under both mu and the shard lock),
// and at most one pass is in flight per volume: one store write at a
// time, in ascending offset order, on the goroutine that called it. The
// store is the only thing below: runs are plain BlockStore.WriteAt calls
// and the Flush barrier a plain Sync.
type destager struct {
	s     *Server
	v     *volume
	cache *blockCache

	mu      sync.Mutex    // the destage mutex; see type comment
	stopped chan struct{} // closed when run() has finished its final pass

	interval time.Duration
	hiWater  int

	// Guarded by mu. A store error during background destaging is sticky:
	// the blocks stay dirty and the error surfaces on the next Flush.
	err    error
	erring bool     // the last pass that wrote anything had a run fail
	dirty  []uint64 // the pass's dirty snapshot, its backing array reused

	runs      atomic.Int64
	blocks    atomic.Int64
	pressured atomic.Int64 // writes the session loop handed to a worker for want of room
}

func newDestager(s *Server, v *volume) *destager {
	return &destager{
		s:        s,
		v:        v,
		cache:    v.cache,
		stopped:  make(chan struct{}),
		interval: s.tune.destageInterval,
		hiWater:  s.tune.dirtyHighWater,
	}
}

// run is the background destage loop: every interval it commits the
// current dirty set, on this goroutine — a pass is a loop of store calls,
// so there is nothing a scheduler worker would add. A tick that finds
// nothing dirty does nothing: an idle volume takes no locks.
func (d *destager) run(done <-chan struct{}) {
	defer close(d.stopped)
	t := time.NewTicker(d.interval)
	defer t.Stop()
	for stop := false; !stop; {
		select {
		case <-done:
			// Final best-effort pass so a clean shutdown leaves little
			// behind; Flush remains the only durability guarantee.
			stop = true
		case <-t.C:
		}
		if d.cache.dirtyCount.Load() > 0 {
			d.destageAll()
		}
	}
}

// overWater reports whether the dirty set has reached the
// high-watermark, past which a write makes room with a destage pass of
// its own before it is absorbed (volume.absorbBehind).
func (d *destager) overWater() bool {
	return d.cache.dirtyCount.Load() >= int64(d.hiWater)
}

// takeErr returns and clears the sticky destage error.
func (d *destager) takeErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.err
	d.err = nil
	return err
}

// destageAll runs one complete pass over the dirty set under the destage
// mutex and returns the pass's first store error, which is also sticky.
func (d *destager) destageAll() error {
	var t0 int64
	if d.s.om != nil || d.s.flight != nil {
		t0 = obs.Now()
	}
	blk0 := d.blocks.Load()
	d.mu.Lock()
	err := d.passLocked()
	d.mu.Unlock()
	if t0 != 0 {
		dur := obs.Now() - t0
		if d.s.om != nil {
			d.s.om.destageRun.Observe(dur)
		}
		// Flight attribution: which writes the pass retired and how long
		// it held the destage mutex — the background work a foreground
		// latency spike in the ring usually sits next to.
		d.s.flight.Record(fkDestage, 0, uint64(d.blocks.Load()-blk0), uint64(dur))
	}
	return err
}

// passLocked commits the dirty snapshot in ascending block order: each
// run of up to maxDestageRun adjacent blocks is staged (dirty → flushing)
// into one pooled buffer, written with one store call and unstaged, before
// the next run is staged into the same buffer. A block that will not stage
// ends its run and is skipped. A failed run's blocks return to dirty and
// its error is sticky. Failures are logged once per episode: a pass logs
// its first failed run only if the sticky error was clear or the previous
// pass had no run fail, so a store that keeps failing is logged once, not
// once per interval. Caller holds d.mu.
//
// With nothing dirty the pass returns before the snapshot, which takes
// every shard lock. The check is sound only here, under d.mu: a run a
// concurrent pass has staged is no longer counted dirty, and a Flush must
// wait that pass out before it syncs.
func (d *destager) passLocked() error {
	if d.cache.dirtyCount.Load() == 0 {
		return nil
	}
	d.dirty = d.cache.dirtySnapshot(d.dirty)
	blks := d.dirty
	if len(blks) == 0 {
		return nil
	}
	vsize := d.v.store.Size()
	buf := d.s.pool.Get(min(len(blks), maxDestageRun) * cacheBlockSize)
	defer d.s.pool.Put(buf)
	var err error
	for i := 0; i < len(blks); {
		first := i
		for i < len(blks) && i-first < maxDestageRun && blks[i] == blks[first]+uint64(i-first) {
			at := int64(i-first) * cacheBlockSize
			if !d.cache.stage(blks[i], buf[at:at+blockLen(vsize, blks[i])]) {
				break
			}
			i++
		}
		if i == first {
			i++ // not stageable
			continue
		}
		run := blks[first:i]
		off := int64(run[0]) * cacheBlockSize
		b := buf[:min(int64(len(run))*cacheBlockSize, vsize-off)]
		werr := d.v.store.WriteAt(b, off)
		d.cache.unstage(run, werr != nil)
		if werr != nil {
			if err == nil && (d.err == nil || !d.erring) {
				d.s.logf("netv3: destage vol run [%d,+%d): %v", off, len(b), werr)
			}
			d.err = cmp.Or(d.err, werr)
			err = cmp.Or(err, werr)
			continue
		}
		d.runs.Add(1)
		d.blocks.Add(int64(len(run)))
	}
	d.erring = err != nil
	return err
}

// flush is the durability barrier behind the wire-level Flush op: drain
// all uncommitted write-behind state, then fsync the store. Any sticky
// background destage error surfaces here.
func (d *destager) flush() error {
	d.destageAll()
	if err := d.takeErr(); err != nil {
		return err
	}
	// The barrier needs no more than this order: destageAll returned
	// under d.mu only after every destage write of every earlier-acked
	// block completed — so every write this Flush must cover has already
	// returned from the store when Sync starts.
	return d.v.store.Sync()
}
