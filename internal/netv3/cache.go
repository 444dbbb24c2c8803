package netv3

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/mqcache"
)

// errCacheBusy reports that a cache insert was refused because every
// slot in the block's shard is pinned by uncommitted write-behind state
// (dirty or flushing blocks). A read serves the block uncached; a write
// waits for a destage pass to unpin some (volume.absorbBehind).
var errCacheBusy = errors.New("netv3: cache shard full of uncommitted blocks")

// errNeedsFill reports that a write only partly covers a block that is
// not resident, so absorbing it needs a store read first — which the
// session loop leaves to a scheduler worker.
var errNeedsFill = errors.New("netv3: partial write to a non-resident block")

// blockCache is the per-volume server cache, sharded so that cache hits
// on different blocks stop serializing on one volume-wide mutex during
// the payload memcpy. It is the TCP-path form of the paper's
// lock-synchronization minimization (Section 3.3): the same MQ policy,
// but the single lock pair per access now covers only 1/nshards of the
// key space. Shards are selected by a fold of the block number's low bits
// (shardOf), so a sequential scan spreads across shards, and so does a
// strided one.
//
// Beyond read caching, the cache carries the write-behind state of the
// paper's pipelined disk manager: blocks a write has landed in but the
// destager has not yet committed are *dirty*; blocks the destager has
// staged for an in-flight batch write are *flushing*; blocks installed
// ahead of a sequential reader are *prefetched*. All of it lives in one
// blockState per MQ slot, beside the block's payload, so an access costs
// one lookup: the MQ's. The rules that keep the store and cache coherent:
//
//   - A dirty or flushing block is never evicted: its slot is pinned in
//     the MQ, so victim selection skips it, and an insert that would need
//     to evict from a shard whose every slot is pinned is refused instead
//     (errCacheBusy).
//     Evicting one would either lose acked data (dirty) or let a reader
//     re-fill the block from the store while the destager's batch write
//     for the same bytes is still in flight (flushing) — a torn read.
//     A pinned slot is therefore the one encoding of "acked but not
//     durable": a slot is pinned exactly when its dirty or flushing flag
//     is set, and evictLocked panics on a victim that breaks it.
//   - Every write lands here (absorb), and a block's store bytes change
//     only in a destage pass, while the block is pinned and resident. So
//     the store holds the freshest bytes of every block that is not
//     resident. No store call runs under a shard lock: a fill reads them
//     with the lock released and installs them only if the block's epoch
//     stripe did not move meanwhile (fillLocked) — the prefetcher's rule.
type blockCache struct {
	shards []cacheShard
	mask   uint64
	pool   *bufpool.Pool
	hits   atomic.Int64
	misses atomic.Int64

	dirtyCount atomic.Int64 // resident dirty blocks across shards
	prefFills  atomic.Int64 // blocks installed by the prefetcher
	prefHits   atomic.Int64 // demand hits on prefetched blocks

	// prefResident counts installed-but-not-yet-demanded prefetch blocks
	// (the shards' slots with the pref flag). The prefetcher refuses new
	// windows once this passes its residency budget: unconsumed
	// read-ahead competing with demand blocks for cache slots evicts the
	// very state it is trying to shortcut. prefBudget is the cap, a
	// quarter of the cache.
	prefResident atomic.Int64
	prefBudget   int64
	prefDiscards atomic.Int64 // dead-stream read-ahead blocks dropped
}

type cacheShard struct {
	mu    sync.Mutex
	mq    *mqcache.MQ
	state []blockState // indexed by MQ slot

	// epochs count content-changing events in this shard, striped by
	// block number: write absorbs and destage unstages bump the written
	// block's stripe under mu. The prefetcher and a miss fill read the
	// store without holding the shard lock; they snapshot the covered
	// blocks' stripes first and revalidate at install — an unchanged stripe
	// proves no write touched any block sharing it mid-flight, so the store
	// bytes read are neither stale nor torn. Striping (rather than one
	// counter per shard) keeps the false-conflict rate low under mixed
	// workloads: a write stream bumps only its own stripes, not every
	// reader's. The stripe count is prime so the power-of-two strides block
	// workloads favor cannot alias a whole write region onto a reader's
	// stripes; a false conflict only costs one skipped read-ahead block,
	// or one repeated fill read.
	epochs [epochStripes]uint64
}

// blockState is the cache's half of one MQ slot: the payload of the block
// resident there and its write-behind flags. The slot keeps its payload
// slab when its block leaves, for the next block that takes the slot — an
// evicting insert takes the victim's slot, so it finds the victim's flags
// to retire and its slab to reuse.
type blockState struct {
	payload  []byte // len cacheBlockSize; nil until the slot's first use
	dirty    bool   // written-behind, not yet destaged
	flushing bool   // staged in an in-flight destage batch
	pref     bool   // installed by prefetch, not yet demanded
}

// epochStripes is the per-shard epoch stripe count. Prime (see above).
const epochStripes = 127

func epochStripe(blk uint64) int { return int(blk % epochStripes) }

// cacheShards is the shard count (a power of two): 16 keeps per-shard
// capacity useful for small caches while allowing 16-way concurrent hits.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// maxUnlockedFills bounds how often a fill re-reads the store because a
// write moved the block's epoch stripe during the read; the read after
// that holds the shard lock, which nothing can race.
const maxUnlockedFills = 4

// newBlockCache builds a cache of totalBlocks across cacheShards shards —
// fewer for a cache too small to give each shard a block.
func newBlockCache(totalBlocks int, pool *bufpool.Pool) *blockCache {
	nshards := cacheShards
	for nshards > 1 && totalBlocks/nshards < 1 {
		nshards /= 2
	}
	per := totalBlocks / nshards
	if per < 1 {
		per = 1
	}
	c := &blockCache{shards: make([]cacheShard, nshards), mask: uint64(nshards - 1), pool: pool}
	c.prefBudget = int64(totalBlocks) / 4
	if c.prefBudget < minPrefetchBlocks {
		c.prefBudget = minPrefetchBlocks
	}
	for i := range c.shards {
		c.shards[i].mq = mqcache.NewMQ(per, 0, 0)
		c.shards[i].state = make([]blockState, per)
	}
	return c
}

func (c *blockCache) shard(blk uint64) *cacheShard {
	return &c.shards[c.shardOf(blk)]
}

// shardOf is blk's shard: its low bits folded with the next ones up. An
// aligned run of cacheShards blocks still covers every shard once, and
// cacheShards² consecutive blocks of a stride up to cacheShards cover every
// shard equally: the blocks at home on one replica of a mirror
// (volume.Mirror) are such a stride, and with the low bits alone a stride
// of 2 filled half the shards and left the other half of the cache idle.
func (c *blockCache) shardOf(blk uint64) uint64 {
	return (blk ^ blk>>cacheShardBits) & c.mask
}

// blockLen returns the meaningful byte count of blk: cacheBlockSize,
// except for the volume's final partial block.
func blockLen(vsize int64, blk uint64) int64 {
	n := vsize - int64(blk)*cacheBlockSize
	if n > cacheBlockSize {
		n = cacheBlockSize
	}
	return n
}

// slab returns st's payload, taking one from the pool for a slot's first
// block.
func (c *blockCache) slab(st *blockState) []byte {
	if st.payload == nil {
		st.payload = c.pool.Get(cacheBlockSize)
	}
	return st.payload
}

// hitLocked records a demand reference to the block in slot: the MQ's
// recency, and the prefetch accounting. Call with the shard lock held.
func (c *blockCache) hitLocked(sh *cacheShard, slot int32) {
	sh.mq.RefAt(slot)
	if st := &sh.state[slot]; st.pref {
		st.pref = false
		c.prefResident.Add(-1)
		c.prefHits.Add(1)
	}
}

// prefetchDiscard drops blocks a dead read stream prefetched but never
// consumed. Discarding is always safe for a block still in pref state:
// its bytes are a clean copy of the store, installed purely on a
// prediction the stream has just disproven. Blocks that left pref state
// (consumed by a demand hit, or claimed by a write — absorb clears the
// flag) are skipped. Returns the number of blocks dropped.
func (c *blockCache) prefetchDiscard(blks []uint64) int {
	dropped := 0
	for _, blk := range blks {
		sh := c.shard(blk)
		sh.mu.Lock()
		if slot, ok := sh.mq.Slot(blk); ok {
			if st := &sh.state[slot]; st.pref && !st.dirty && !st.flushing {
				st.pref = false
				c.prefResident.Add(-1)
				sh.mq.Remove(blk)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	c.prefDiscards.Add(int64(dropped))
	return dropped
}

// evictLocked retires the state of victim, which the MQ just evicted from
// slot to make room for the block now there. The MQ never selects a pinned
// entry and every dirty or flushing block is pinned, so the victim is
// clean; one that is not is a bug that would drop an acked write, and
// that must never happen quietly. The slot keeps its payload slab for the
// new block. Call with sh.mu held.
func (c *blockCache) evictLocked(sh *cacheShard, slot int32, victim uint64) {
	st := &sh.state[slot]
	if st.dirty || st.flushing {
		panic(fmt.Sprintf("netv3: cache evicted block %d holding uncommitted bytes (dirty=%v flushing=%v)", victim, st.dirty, st.flushing))
	}
	if st.pref {
		st.pref = false
		c.prefResident.Add(-1)
	}
}

// insertLocked makes blk, which is not resident, resident in sh: it
// returns the block's slot with the victim it evicted retired, or false
// when the shard is wall-to-wall pinned. Call with sh.mu held.
func (c *blockCache) insertLocked(sh *cacheShard, blk uint64) (int32, bool) {
	slot, _, victim, evicted, inserted := sh.mq.RefOrTryInsert(blk)
	if evicted {
		c.evictLocked(sh, slot, victim)
	}
	return slot, inserted
}

// fillLocked reads block blk's store bytes into payload (zero past the
// volume's end) with sh.mu released, and returns with it held again, so a
// store read never holds up the shard's hits. The block is not resident
// when it is called. If it went resident meanwhile — another fill, a
// write — fillLocked reports its slot, whose bytes are at least as fresh:
// payload is then to be discarded. Otherwise payload holds the block's
// current store bytes, or err: the block's epoch stripe did not move
// across the read, so no write was absorbed into it, and none destaged
// from it, while the store call ran. A moved stripe means a re-read.
func (c *blockCache) fillLocked(v *volume, sh *cacheShard, blk uint64, payload []byte) (slot int32, resident bool, err error) {
	stripe := epochStripe(blk)
	n := blockLen(v.store.Size(), blk)
	for try := 1; ; try++ {
		epoch := sh.epochs[stripe]
		unlocked := try <= maxUnlockedFills
		if unlocked {
			sh.mu.Unlock()
		}
		err = v.store.ReadAt(payload[:n], int64(blk)*cacheBlockSize)
		if unlocked {
			sh.mu.Lock()
		}
		if slot, ok := sh.mq.Slot(blk); ok {
			return slot, true, nil
		}
		if sh.epochs[stripe] == epoch {
			// Pooled slabs arrive dirty; the tail past EOF must read as zeros.
			clear(payload[n:])
			return mqcache.NoSlot, false, err
		}
	}
}

// readBlock copies block blk's bytes [within, within+n) into dst,
// filling the block from store on a miss. The fill reads the store with
// the shard lock released (fillLocked) and installs the block after;
// a shard wall-to-wall pinned serves the bytes read without caching them.
func (c *blockCache) readBlock(v *volume, blk uint64, within, n int64, dst []byte) error {
	sh := c.shard(blk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if slot, ok := sh.mq.Slot(blk); ok {
		c.hits.Add(1)
		c.hitLocked(sh, slot)
		copy(dst, sh.state[slot].payload[within:within+n])
		return nil
	}
	c.misses.Add(1)
	payload := c.pool.Get(cacheBlockSize)
	slot, resident, err := c.fillLocked(v, sh, blk, payload)
	if resident {
		// Filled or written while the store read ran: that copy is current.
		c.hitLocked(sh, slot)
		copy(dst, sh.state[slot].payload[within:within+n])
	} else if err == nil {
		copy(dst, payload[within:within+n])
		if slot, ok := c.insertLocked(sh, blk); ok {
			// The slot's old slab goes back instead of the filled one. A
			// shard wall-to-wall pinned has no slot: the read is served
			// uncached.
			st := &sh.state[slot]
			payload, st.payload = st.payload, payload
		}
	}
	c.pool.Put(payload)
	return err
}

// readBlockHit is the hit-only probe behind the session loop's inline
// read path: it copies the block's bytes if resident and reports false
// otherwise, never touching the store. A false return leaves dst
// partially written; the caller re-issues the whole read as a scheduler
// task. The hit counter is the caller's to publish, once the whole range
// has hit.
func (c *blockCache) readBlockHit(blk uint64, within, n int64, dst []byte) bool {
	sh := c.shard(blk)
	sh.mu.Lock()
	slot, ok := sh.mq.Slot(blk)
	if ok {
		c.hitLocked(sh, slot)
		copy(dst, sh.state[slot].payload[within:within+n])
	}
	sh.mu.Unlock()
	return ok
}

// resident reports whether every block of [first, last] is in the cache,
// touching no recency or accounting state.
func (c *blockCache) resident(first, last uint64) bool {
	for blk := first; blk <= last; blk++ {
		sh := c.shard(blk)
		sh.mu.Lock()
		_, ok := sh.mq.Slot(blk)
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// absorb folds write bytes into block blk as dirty state — the
// write-behind path. An absent block is installed first: a fully covered
// block needs no store round-trip; a partially covered one is
// read-modify-write filled from the store (fillLocked), like any fill,
// when fill is set, and refused with errNeedsFill when it is not.
func (c *blockCache) absorb(v *volume, blk uint64, within, n int64, src []byte, fill bool) error {
	sh := c.shard(blk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, resident := sh.mq.Slot(blk)
	if !resident {
		bl := blockLen(v.store.Size(), blk)
		var filled []byte
		if within != 0 || n != bl {
			if !fill {
				return errNeedsFill
			}
			filled = c.pool.Get(cacheBlockSize)
			var err error
			if slot, resident, err = c.fillLocked(v, sh, blk, filled); err != nil || resident {
				c.pool.Put(filled)
				filled = nil
			}
			if err != nil {
				return err
			}
		}
		if !resident {
			var ok bool
			if slot, ok = c.insertLocked(sh, blk); !ok {
				// Shard wall-to-wall pinned: no slot for another dirty block.
				c.pool.Put(filled)
				return errCacheBusy
			}
			st := &sh.state[slot]
			if filled != nil {
				filled, st.payload = st.payload, filled
				c.pool.Put(filled)
			} else {
				clear(c.slab(st)[bl:])
			}
		}
	}
	if resident {
		sh.mq.RefAt(slot)
	}
	st := &sh.state[slot]
	copy(st.payload[within:within+n], src)
	if !st.dirty {
		st.dirty = true
		c.dirtyCount.Add(1)
		sh.mq.PinAt(slot)
	}
	if st.pref {
		st.pref = false
		c.prefResident.Add(-1)
	}
	sh.epochs[epochStripe(blk)]++
	return nil
}

// dirtySnapshot returns the sorted block numbers currently dirty — the
// destager's work list — in blks[:0]'s backing array, grown as needed.
// Blocks may be cleaned between snapshot and staging; stage re-checks
// under the shard lock.
func (c *blockCache) dirtySnapshot(blks []uint64) []uint64 {
	blks = blks[:0]
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for slot := range sh.state {
			if sh.state[slot].dirty {
				blks = append(blks, sh.mq.KeyAt(int32(slot)))
			}
		}
		sh.mu.Unlock()
	}
	slices.Sort(blks)
	return blks
}

// stage copies blk's payload into dst for a destage batch, moving the
// block dirty → flushing. Reports false if the block is not resident and
// dirty.
func (c *blockCache) stage(blk uint64, dst []byte) bool {
	sh := c.shard(blk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.mq.Slot(blk)
	if !ok || !sh.state[slot].dirty {
		return false
	}
	st := &sh.state[slot]
	if st.flushing {
		// A prior batch's write for this block is still in flight (it was
		// re-dirtied mid-batch). Staging it again would put two writes for
		// the same extent in flight at once with no ordering between them;
		// leave it dirty for the next pass, after unstage clears the mark.
		return false
	}
	copy(dst, st.payload[:len(dst)])
	st.dirty = false
	c.dirtyCount.Add(-1)
	st.flushing = true
	return true
}

// unstage clears the flushing marks of a committed batch. With redirty,
// the batch write failed: the blocks (pinned, so still resident) return
// to dirty and the next pass retries them.
func (c *blockCache) unstage(blks []uint64, redirty bool) {
	for _, blk := range blks {
		sh := c.shard(blk)
		sh.mu.Lock()
		if slot, ok := sh.mq.Slot(blk); ok {
			st := &sh.state[slot]
			st.flushing = false
			if redirty && !st.dirty {
				st.dirty = true
				c.dirtyCount.Add(1)
			}
			if !st.dirty {
				// No uncommitted state left on this block (it was not
				// re-dirtied mid-flight): make it evictable again.
				sh.mq.UnpinAt(slot)
			}
		}
		// The destage write for this block just finished (well or badly);
		// either way the store range was in motion while it was in flight.
		sh.epochs[epochStripe(blk)]++
		sh.mu.Unlock()
	}
}

// windowPlan is prefetchPlan's verdict on one read-ahead window of at most
// maxPrefetchBlocks blocks, index-aligned with them: want marks the blocks
// worth fetching, epochs the counter of each block's epoch stripe at plan
// time. Fixed-size, so a fill keeps its plan on its own stack.
type windowPlan struct {
	want   [maxPrefetchBlocks]bool
	epochs [maxPrefetchBlocks]uint64
}

// A shard set is a uint32 bit mask; this stops compiling if cacheShards
// outgrows it.
const _ = uint32(1) << (cacheShards - 1)

// lockShards locks every shard in mask (bit i = shard i) in index order,
// so that two windows locking overlapping shard sets cannot deadlock.
func (c *blockCache) lockShards(mask uint32) {
	for idx := range c.shards {
		if mask&(1<<idx) != 0 {
			c.shards[idx].mu.Lock()
		}
	}
}

func (c *blockCache) unlockShards(mask uint32) {
	for idx := range c.shards {
		if mask&(1<<idx) != 0 {
			c.shards[idx].mu.Unlock()
		}
	}
}

// prefetchPlan is the lock phase of a batched prefetch fill: under the
// touched shards' locks it fills p with which of the window's blocks are
// worth fetching (in-volume and absent) and each one's epoch stripe. The
// caller then reads the store with no locks held and hands the bytes to
// prefetchInstall. Returns need=0 when nothing is wanted.
func (c *blockCache) prefetchPlan(v *volume, blks []uint64, p *windowPlan) (need int) {
	vsize := v.store.Size()
	var mask uint32
	for _, blk := range blks {
		if int64(blk)*cacheBlockSize < vsize {
			mask |= 1 << c.shardOf(blk)
		}
	}
	c.lockShards(mask)
	for i, blk := range blks {
		p.want[i] = false
		if int64(blk)*cacheBlockSize >= vsize {
			continue // out of volume
		}
		sh := c.shard(blk)
		p.epochs[i] = sh.epochs[epochStripe(blk)]
		if _, resident := sh.mq.Slot(blk); !resident {
			p.want[i] = true
			need++
		}
	}
	c.unlockShards(mask)
	return need
}

// prefetchInstall publishes a lock-free prefetch read's bytes: slot i of
// buf holds blks[i] as read from the store for every block p wants (the
// filler clears want for a block whose read failed). A block installs
// only if its epoch stripe is unchanged since the plan (no write raced the
// unlocked read) and it is still absent — otherwise it is skipped; a
// future demand miss fetches it coherently. Returns the number installed.
func (c *blockCache) prefetchInstall(blks []uint64, p *windowPlan, buf []byte) int {
	var mask uint32
	for i, blk := range blks {
		if p.want[i] {
			mask |= 1 << c.shardOf(blk)
		}
	}
	c.lockShards(mask)
	installed := 0
	for i, blk := range blks {
		if !p.want[i] {
			continue
		}
		sh := c.shard(blk)
		if sh.epochs[epochStripe(blk)] != p.epochs[i] {
			continue
		}
		if _, resident := sh.mq.Slot(blk); resident {
			continue
		}
		slot, inserted := c.insertLocked(sh, blk)
		if !inserted {
			// Shard wall-to-wall pinned: speculative bytes never displace
			// uncommitted ones, so the block is skipped; a later demand
			// miss fetches it coherently.
			continue
		}
		// Second reference on insert: without it a long scan's read-ahead
		// lands in the MQ's lowest queue, whose LRU victim is the oldest
		// not-yet-read prefetched block — the next one the stream needs.
		// Promoted one level, eviction falls on already-consumed blocks.
		sh.mq.RefAt(slot)
		st := &sh.state[slot]
		copy(c.slab(st), buf[i*cacheBlockSize:(i+1)*cacheBlockSize])
		st.pref = true
		c.prefResident.Add(1)
		c.prefFills.Add(1)
		installed++
	}
	c.unlockShards(mask)
	return installed
}

// stats returns cumulative (hits, misses).
func (c *blockCache) stats() (int64, int64) {
	return c.hits.Load(), c.misses.Load()
}
