package netv3

import (
	"cmp"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// maxDestageRun caps one coalesced destage write at 64 blocks (512 KB
// with 8 KB blocks) — large enough to amortize per-I/O cost, small
// enough to bound staging-buffer size and store-write latency.
const maxDestageRun = 64

// destageHistBuckets is the number of log2 batch-size buckets: runs of
// 1, 2, ≤4, ≤8, ≤16, ≤32 and ≤64 blocks.
const destageHistBuckets = 7

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
// and at most one pass — a fan-out of writes to pairwise-disjoint runs —
// is in flight per volume. The store is the only thing below: runs are
// plain BlockStore.WriteAt calls and the Flush barrier a plain Sync.
type destager struct {
	s     *Server
	v     *volume
	cache *blockCache

	mu      sync.Mutex    // the destage mutex; see type comment
	stopped chan struct{} // closed when run() has finished its final pass

	interval time.Duration
	hiWater  int

	// Store errors during background destaging are sticky: the blocks
	// stay dirty and the error surfaces on the next Flush.
	errMu sync.Mutex
	err   error

	runs      atomic.Int64
	blocks    atomic.Int64
	hist      [destageHistBuckets]atomic.Int64
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
// current dirty set, on this goroutine — a pass fans its store writes out
// itself (storeFanOut), so there is nothing a scheduler worker would add.
// A tick that finds nothing dirty does nothing: an idle volume takes no
// locks.
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

func (d *destager) setErr(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// takeErr returns and clears the sticky destage error.
func (d *destager) takeErr() error {
	d.errMu.Lock()
	err := d.err
	d.err = nil
	d.errMu.Unlock()
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

// passLocked commits the dirty snapshot: adjacent dirty blocks coalesce
// into contiguous runs of up to maxDestageRun blocks, and ALL runs of the
// pass go to the store as one fan-out (storeFanOut) — up to
// maxStoreFanOut writes in flight at once, so a pass of k runs on a store
// that blocks costs ~k/64 device rounds instead of k. The join happens
// under d.mu, which preserves the destage mutex's ordering contract at
// pass granularity: the runs of one pass cover pairwise-disjoint block
// ranges (a sorted, deduplicated dirty snapshot partitions into
// non-overlapping runs), so their relative completion order cannot
// change file contents, and no other destage-side write can start until
// the whole pass has resolved. Each run stages into its own pooled
// buffer, sized to the run: the contiguous extent is measured in the
// snapshot before the buffer is taken, because a random-write workload
// destages ~1 block per run and a maximal slab for each would park 64×
// the staged bytes. Caller holds d.mu.
func (d *destager) passLocked() error {
	blks := d.cache.dirtySnapshot()
	if len(blks) == 0 {
		return nil
	}
	vsize := d.v.store.Size()
	pool := d.s.pool
	var runs [][]uint64 // staged blocks per op
	var ops []storeOp
	i := 0
	for i < len(blks) {
		start := blks[i]
		extent := 1
		for i+extent < len(blks) && extent < maxDestageRun && blks[i+extent] == start+uint64(extent) {
			extent++
		}
		buf := pool.Get(extent * cacheBlockSize)
		n := 0
		for n < extent {
			ln := blockLen(vsize, blks[i])
			if !d.cache.stage(blks[i], buf[n*cacheBlockSize:int64(n)*cacheBlockSize+ln]) {
				break // not stageable; run ends here
			}
			n++
			i++
		}
		if n == 0 {
			pool.Put(buf)
			i++ // skip the unstageable block
			continue
		}
		off := int64(start) * cacheBlockSize
		runBytes := int64(n) * cacheBlockSize
		if off+runBytes > vsize {
			runBytes = vsize - off
		}
		runs = append(runs, blks[i-n:i])
		ops = append(ops, storeOp{buf: buf[:runBytes], off: off})
	}
	storeFanOut(ops, d.v.store.WriteAt)
	var err error
	for ri, op := range ops {
		staged := runs[ri]
		if op.err != nil {
			d.s.logf("netv3: destage vol run [%d,+%d): %v", op.off, len(op.buf), op.err)
			d.cache.unstage(staged, true)
			d.setErr(op.err)
			err = cmp.Or(err, op.err)
		} else {
			d.cache.unstage(staged, false)
			d.runs.Add(1)
			d.blocks.Add(int64(len(staged)))
			d.hist[batchBucket(len(staged))].Add(1)
		}
		pool.Put(op.buf)
	}
	return err
}

// batchBucket maps a run's block count to its log2 histogram bucket.
func batchBucket(n int) int {
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3..4→2, 5..8→3, ...
	if b >= destageHistBuckets {
		b = destageHistBuckets - 1
	}
	return b
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
