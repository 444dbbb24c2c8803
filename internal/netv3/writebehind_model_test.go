package netv3

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/faultnet"
)

// checkPinInvariant asserts the one encoding of acked-but-not-durable,
// slot by slot: in every shard a resident block's MQ slot is pinned
// exactly when its dirty or flushing flag is set, a slot no block holds
// carries no flag, and dirtyCount is the number of dirty flags. Call it
// only while no write, destage pass or flush is running.
func checkPinInvariant(t testing.TB, c *blockCache) {
	t.Helper()
	var dirty int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		pinned := 0
		for slot, st := range sh.state {
			s := int32(slot)
			blk := sh.mq.KeyAt(s)
			at, ok := sh.mq.Slot(blk)
			uncommitted := st.dirty || st.flushing
			switch {
			case !ok || at != s:
				if uncommitted || st.pref {
					t.Errorf("shard %d: free slot %d carries flags dirty=%v flushing=%v pref=%v", i, s, st.dirty, st.flushing, st.pref)
				}
			case sh.mq.PinnedAt(s) != uncommitted:
				t.Errorf("shard %d: block %d pinned=%v, dirty=%v flushing=%v", i, blk, sh.mq.PinnedAt(s), st.dirty, st.flushing)
			case uncommitted:
				pinned++
			}
			if st.dirty {
				dirty++
			}
		}
		if got := sh.mq.PinnedLen(); got != pinned {
			t.Errorf("shard %d: %d pinned blocks, %d slots dirty or flushing", i, got, pinned)
		}
		sh.mu.Unlock()
	}
	if got := c.dirtyCount.Load(); got != dirty {
		t.Errorf("dirtyCount = %d, shards hold %d dirty blocks", got, dirty)
	}
}

// TestEvictDirtyVictimPanics drives evictLocked directly on a dirty and
// on a flushing block: dropping acked bytes must be loud. (The MQ never
// offers such a victim — both are pinned — so nothing else can reach it.)
func TestEvictDirtyVictimPanics(t *testing.T) {
	c := newBlockCache(4, bufpool.New())
	v := &volume{store: NewMemStore(64 * cacheBlockSize), cache: c}
	if err := c.absorb(v, 0, 0, cacheBlockSize, make([]byte, cacheBlockSize), false); err != nil {
		t.Fatal(err)
	}
	evict := func() (panicked bool) {
		sh := c.shard(0)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		defer func() { panicked = recover() != nil }()
		slot, _ := sh.mq.Slot(0)
		c.evictLocked(sh, slot, 0)
		return false
	}
	if !evict() {
		t.Fatal("evicting a dirty block did not panic")
	}
	if !c.stage(0, make([]byte, cacheBlockSize)) {
		t.Fatal("stage refused")
	}
	if !evict() {
		t.Fatal("evicting a flushing block did not panic")
	}
	checkPinInvariant(t, c) // the refused evictions changed nothing
}

// TestPropWriteBehindMatchesModel runs seeded single-threaded schedules
// of every entry point of the write-behind machinery against a flat byte
// array. The cache is 16 shards of 2 blocks over a 48-block volume, so
// shards go wall-to-wall pinned all the time: errCacheBusy, the
// over-watermark path and refused installs all fire (asserted at the
// end). Checked: every read returns the model's bytes; after a successful
// flush the store equals the model; after every step the pin invariant
// holds. The destager is parked, so each schedule is replayable by seed.
func TestPropWriteBehindMatchesModel(t *testing.T) {
	const (
		seeds   = 200
		steps   = 300
		volBlks = 48
		volSize = volBlks*cacheBlockSize + 3000 // a partial tail block
	)
	// Write payloads are windows onto one random pool: position-dependent
	// bytes without generating them per write.
	pool := make([]byte, 1<<20)
	rand.New(rand.NewSource(0)).Read(pool)
	scratch := make([]byte, 6*cacheBlockSize) // read and prefetch buffer
	var busy, overWater, refused int64
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := NewMemStore(volSize)
		flaky := faultnet.NewStore(mem, faultnet.StoreConfig{})
		srv := newServer(ServerConfig{CacheBlocks: 32}, parked)
		srv.AddVolume(1, flaky)
		v := srv.lookup(1)
		c := v.cache
		model := make([]byte, volSize)

		failing := false // the store fails every op
		mayFail := false // a flush may report an injected failure
		// storeMatchesModel compares the blocks the model changed since the
		// last successful comparison (all: the whole volume).
		var touched [volBlks + 1]bool
		storeMatchesModel := func(all bool) bool {
			mem.mu.RLock()
			defer mem.mu.RUnlock()
			if all {
				return bytes.Equal(mem.data, model)
			}
			for blk, yes := range touched {
				lo := blk * cacheBlockSize
				hi := min(lo+cacheBlockSize, volSize)
				if yes && !bytes.Equal(mem.data[lo:hi], model[lo:hi]) {
					return false
				}
				touched[blk] = false
			}
			return true
		}
		extent := func() (off int64, n int) {
			off = rng.Int63n(volSize)
			switch rng.Intn(4) {
			case 0: // whole blocks
				off -= off % cacheBlockSize
				n = (1 + rng.Intn(3)) * cacheBlockSize
			case 1: // unaligned, up to three blocks
				n = 1 + rng.Intn(2*cacheBlockSize)
			default: // a fragment
				n = 1 + rng.Intn(1024)
			}
			if int64(n) > volSize-off {
				n = int(volSize - off)
			}
			return off, n
		}
		// write mirrors session.write: the loop's memcpy absorb under the
		// watermark, then the worker's absorbBehind for whatever is left
		// (worker forces the whole write onto the latter).
		write := func(off int64, data []byte, worker bool) error {
			if !worker {
				if v.wb.overWater() {
					overWater++
				} else {
					n, err := v.absorbWrite(data, off, false)
					if err == errCacheBusy {
						busy++
					}
					if err != errCacheBusy && err != errNeedsFill {
						return err
					}
					off, data = off+int64(n), data[n:]
				}
			}
			return v.absorbBehind(data, off)
		}
		// ackedWrite applies a write to system and model. A write the dead
		// store fails is not acked and leaves its range indeterminate, so
		// the store comes back and the client's retry must succeed.
		ackedWrite := func(off int64, n int, worker bool) {
			at := rng.Intn(len(pool) - n)
			data := pool[at : at+n]
			if err := write(off, data, worker); err != nil {
				if !failing {
					t.Fatalf("seed %d: write [%d,+%d) failed on a healthy store: %v", seed, off, n, err)
				}
				failing = false
				flaky.FailAll(false)
				if err := write(off, data, worker); err != nil {
					t.Fatalf("seed %d: retried write [%d,+%d): %v", seed, off, n, err)
				}
			}
			copy(model[off:], data)
			for blk := off / cacheBlockSize; blk <= (off+int64(n)-1)/cacheBlockSize; blk++ {
				touched[blk] = true
			}
		}

		for step := 0; step < steps && !t.Failed(); step++ {
			switch op := rng.Intn(100); {
			case op < 35:
				off, n := extent()
				ackedWrite(off, n, false)
			case op < 42:
				off, n := extent()
				ackedWrite(off, n, true)
			case op < 62:
				off, n := extent()
				got := scratch[:n]
				if err := v.cachedRead(got, off); err != nil {
					if !failing {
						t.Fatalf("seed %d step %d: read [%d,+%d): %v", seed, step, off, n, err)
					}
				} else if !bytes.Equal(got, model[off:off+int64(n)]) {
					t.Fatalf("seed %d step %d: read [%d,+%d) differs from the model", seed, step, off, n)
				}
			case op < 70:
				off, n := extent()
				got := scratch[:n]
				if v.tryCachedRead(got, off) && !bytes.Equal(got, model[off:off+int64(n)]) {
					t.Fatalf("seed %d step %d: inline hit [%d,+%d) differs from the model", seed, step, off, n)
				}
			case op < 80:
				v.wb.destageAll()
			case op < 86:
				err := v.wb.flush()
				if err != nil && !mayFail && !failing {
					t.Fatalf("seed %d step %d: flush failed with nothing injected: %v", seed, step, err)
				}
				if err == nil {
					if failing {
						t.Fatalf("seed %d step %d: flush succeeded on a dead store", seed, step)
					}
					if !storeMatchesModel(false) {
						t.Fatalf("seed %d step %d: store differs from the model after a successful flush", seed, step)
					}
				}
				mayFail = failing
			case op < 94:
				// Prefetch, split around its unlocked store read so a write can
				// land between the read and the install: the epoch check must
				// then drop the stale block.
				start, n := uint64(rng.Intn(volBlks+4)), 1+rng.Intn(6)
				blks := make([]uint64, n)
				for i := range blks {
					blks[i] = start + uint64(i)
				}
				var plan windowPlan
				need := c.prefetchPlan(v, blks, &plan)
				if need == 0 {
					break
				}
				buf := scratch[:n*cacheBlockSize]
				clear(buf) // the tail block installs zero-padded
				if off := int64(start) * cacheBlockSize; off < volSize {
					if err := mem.ReadAt(buf[:min(int64(len(buf)), volSize-off)], off); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(2) == 0 {
					if off := int64(blks[rng.Intn(n)]) * cacheBlockSize; off < volSize {
						ackedWrite(off, int(min(cacheBlockSize, volSize-off)), rng.Intn(2) == 0)
					}
					c.prefetchInstall(blks, &plan, buf)
					break
				}
				// Nothing moved since the plan, so a wanted block that does not
				// install was refused by a wall-to-wall pinned shard.
				refused += int64(need - c.prefetchInstall(blks, &plan, buf))
			case op < 96:
				c.prefetchDiscard([]uint64{uint64(rng.Intn(volBlks)), uint64(rng.Intn(volBlks))})
			case op < 98:
				failing = !failing
				flaky.FailAll(failing)
				mayFail = mayFail || failing
			default:
				if failing || mayFail {
					break
				}
				flaky.FailNextSync(faultnet.ErrInjected)
				if err := v.wb.flush(); err == nil {
					t.Fatalf("seed %d step %d: flush swallowed an injected sync failure", seed, step)
				}
			}
			checkPinInvariant(t, c)
		}

		// The schedule's last word: with the store healthy, two flushes (the
		// first may still carry a sticky destage error) leave store == model.
		flaky.FailAll(false)
		_ = v.wb.flush()
		if err := v.wb.flush(); err != nil {
			t.Fatalf("seed %d: final flush: %v", seed, err)
		}
		if !storeMatchesModel(true) {
			t.Fatalf("seed %d: store differs from the model after the final flush", seed)
		}
		if c.dirtyCount.Load() != 0 {
			t.Fatalf("seed %d: %d dirty blocks survive a successful flush", seed, c.dirtyCount.Load())
		}
		closeServer(t, srv)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
	if busy == 0 || overWater == 0 || refused == 0 {
		t.Fatalf("schedules never reached a path they exist for: errCacheBusy=%d over-watermark=%d refused installs=%d",
			busy, overWater, refused)
	}
	t.Logf("errCacheBusy=%d over-watermark writes=%d refused installs=%d", busy, overWater, refused)
}
