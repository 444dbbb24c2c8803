package netv3

import "testing"

// TestCacheOpsAllocateNothing: on a warmed, full block cache, the block
// operations allocate nothing — the MQ recycles its slots, each slot keeps
// its blockState and payload slab, and a fill's slab comes from the pool
// and goes back as the slot's old one. Covered: an inline hit, a worker
// hit, a miss fill that evicts, an absorb into a block that is not
// resident (evicting) and into one that is, and the destager's stage and
// unstage of each; a whole destage pass of two runs, its snapshot and
// staging buffer reused; and a read-ahead window's plan and install.
func TestCacheOpsAllocateNothing(t *testing.T) {
	const capacity, volBlocks = 64, 1024
	const hot = volBlocks // outside the scan; a full cache still holds it
	srv := newServer(ServerConfig{CacheBlocks: capacity}, parked)
	defer closeServer(t, srv)
	srv.AddVolume(1, NewMemStore((volBlocks+1)*cacheBlockSize))
	v := srv.lookup(1)
	c := v.cache
	dst := make([]byte, cacheBlockSize)
	src := make([]byte, cacheBlockSize)
	one := make([]uint64, 1)
	cold := uint64(0) // a cyclic scan of 16x the cache: every block a miss
	next := func() uint64 { cold = (cold + 1) % volBlocks; return cold }
	absorb := func(blk uint64) {
		if err := c.absorb(v, blk, 0, cacheBlockSize, src, false); err != nil {
			t.Fatal(err)
		}
	}
	writeBack := func(blk uint64) {
		absorb(blk)
		if !c.stage(blk, dst) {
			t.Fatalf("stage(%d) refused", blk)
		}
		one[0] = blk
		c.unstage(one, false)
	}
	var plan windowPlan
	window := make([]uint64, minPrefetchBlocks)
	read := make([]byte, len(window)*cacheBlockSize) // the window's store bytes
	wanted, installed := 0, 0
	readAhead := func() {
		for i := range window {
			window[i] = next()
		}
		if need := c.prefetchPlan(v, window, &plan); need > 0 {
			wanted += need
			installed += c.prefetchInstall(window, &plan, read)
		}
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
		{"a destage pass of two runs", func() {
			for _, blk := range [...]uint64{2, 3, 4, 7, 8} {
				absorb(blk)
			}
			if err := v.wb.destageAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{"read-ahead plan and install of a window that evicts", readAhead},
	} {
		if n := testing.AllocsPerRun(1000, op.f); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", op.name, n)
		}
	}
	if got := c.misses.Load() - misses; got < 1000 {
		t.Fatalf("%d misses in the miss runs, want every one", got)
	}
	if d := srv.DiskStats(); d.DestageRuns < 2*1000 || d.DestagedBlocks < 5*1000 {
		t.Fatalf("destage passes committed %d runs / %d blocks, want two runs / five blocks a pass", d.DestageRuns, d.DestagedBlocks)
	}
	if installed != wanted || installed < 1000 {
		t.Fatalf("read-ahead installed %d of the %d blocks its plans wanted", installed, wanted)
	}
	checkPinInvariant(t, c)
}

// TestCacheHoldsStridedBlocks: a cache of cacheShards² slots holds as many
// blocks of a stride as it has slots — the blocks at home on one replica of
// a mirror of 1 to 8 replicas — because the shard choice spreads such a
// stride over every shard equally. With the block number's low bits alone,
// stride 2 filled half the shards and most of a second pass missed.
func TestCacheHoldsStridedBlocks(t *testing.T) {
	const capacity = cacheShards * cacheShards
	for stride := uint64(1); stride <= 8; stride++ {
		srv := newServer(ServerConfig{CacheBlocks: capacity}, parked)
		srv.AddVolume(1, NewMemStore(int64(stride*capacity)*cacheBlockSize))
		v := srv.lookup(1)
		dst := make([]byte, cacheBlockSize)
		for pass := 0; pass < 2; pass++ {
			for i := uint64(0); i < capacity; i++ {
				if err := v.cache.readBlock(v, i*stride, 0, cacheBlockSize, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		if hits, misses := v.cache.stats(); hits != capacity || misses != capacity {
			t.Errorf("stride %d: %d hits, %d misses over two passes of %d blocks in a %d-block cache; want a miss then a hit each",
				stride, hits, misses, capacity, capacity)
		}
		closeServer(t, srv)
	}
}
