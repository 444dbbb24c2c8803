package netv3

import (
	"testing"

	"github.com/v3storage/v3/internal/bufpool"
)

// TestCacheOpsAllocateNothing: on a warmed, full block cache, the block
// operations allocate nothing — the MQ recycles its slots, each slot keeps
// its blockState and payload slab, and a fill's slab comes from the pool
// and goes back as the slot's old one. Covered: an inline hit, a worker
// hit, a miss fill that evicts, an absorb into a block that is not
// resident (evicting) and into one that is, and the destager's stage and
// unstage of each.
func TestCacheOpsAllocateNothing(t *testing.T) {
	const capacity, volBlocks = 64, 1024
	c := newBlockCache(capacity, bufpool.New())
	const hot = volBlocks // outside the scan; a full cache still holds it
	v := &volume{store: NewMemStore((volBlocks + 1) * cacheBlockSize), cache: c}
	dst := make([]byte, cacheBlockSize)
	src := make([]byte, cacheBlockSize)
	one := make([]uint64, 1)
	cold := uint64(0) // a cyclic scan of 16x the cache: every block a miss
	next := func() uint64 { cold = (cold + 1) % volBlocks; return cold }
	writeBack := func(blk uint64) {
		if err := c.absorb(v, blk, 0, cacheBlockSize, src, false); err != nil {
			t.Fatal(err)
		}
		if !c.stage(blk, dst) {
			t.Fatalf("stage(%d) refused", blk)
		}
		one[0] = blk
		c.unstage(one, false)
	}
	for i := 0; i < 100*volBlocks; i++ { // full, every slot's slab taken, maps settled
		if err := c.readBlock(v, next(), 0, cacheBlockSize, dst); err != nil {
			t.Fatal(err)
		}
		writeBack(next())
	}
	writeBack(hot)
	misses := c.misses.Load()
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"readBlockHit", func() {
			if !c.readBlockHit(hot, 0, cacheBlockSize, dst) {
				t.Fatal("the hot block left the cache")
			}
		}},
		{"readBlock hit", func() { _ = c.readBlock(v, hot, 0, cacheBlockSize, dst) }},
		{"readBlock miss that evicts", func() { _ = c.readBlock(v, next(), 0, cacheBlockSize, dst) }},
		{"absorb that evicts, stage, unstage", func() { writeBack(next()) }},
		{"absorb into a resident block, stage, unstage", func() { writeBack(hot) }},
	} {
		if n := testing.AllocsPerRun(1000, op.f); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", op.name, n)
		}
	}
	if got := c.misses.Load() - misses; got < 1000 {
		t.Fatalf("%d misses in the miss runs, want every one", got)
	}
	checkPinInvariant(t, c)
}
