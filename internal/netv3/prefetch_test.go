package netv3

import (
	"bytes"
	"testing"

	"github.com/v3storage/v3/internal/bufpool"
)

// Stride-detector unit tests: the prefetcher is pure per-session state,
// so these drive observe directly and check the emitted windows.

func TestPrefetcherSequentialStream(t *testing.T) {
	var p prefetcher
	const rl = 2 * cacheBlockSize // 16 KB reads

	if _, cancel, ok := p.observe(1, 0, rl); ok || cancel != nil {
		t.Fatal("first read must not arm read-ahead")
	}
	if _, _, ok := p.observe(1, rl, rl); ok {
		t.Fatal("one adjacency is below the arming streak")
	}
	blks, _, ok := p.observe(1, 2*rl, rl)
	if !ok {
		t.Fatal("third sequential read must open a window")
	}
	// The stream has consumed blocks 0-5; the window starts at the
	// frontier (block 6) and spans the slow-start degree.
	if len(blks) != minPrefetchBlocks {
		t.Fatalf("window size %d, want %d", len(blks), minPrefetchBlocks)
	}
	for i, b := range blks {
		if b != uint64(6+i) {
			t.Fatalf("blks[%d]=%d, want %d", i, b, 6+i)
		}
	}
	// Continuing the scan doubles the degree once the previous window is
	// half consumed.
	blks2, _, ok := p.observe(1, 3*rl, rl)
	if !ok {
		t.Fatal("continuing read must extend the horizon")
	}
	if len(blks2) != 2*minPrefetchBlocks {
		t.Fatalf("second window size %d, want doubled %d", len(blks2), 2*minPrefetchBlocks)
	}
	if blks2[0] != blks[len(blks)-1]+1 {
		t.Fatalf("second window starts at %d, want contiguous after %d", blks2[0], blks[len(blks)-1])
	}
}

func TestPrefetcherBreakCancelsEmitted(t *testing.T) {
	var p prefetcher
	const rl = 2 * cacheBlockSize
	p.observe(1, 0, rl)
	p.observe(1, rl, rl)
	w1, _, _ := p.observe(1, 2*rl, rl)
	w2, _, _ := p.observe(1, 3*rl, rl)

	// A far-away read kills the stream: every block the dead stream
	// emitted comes back for discard, exactly once.
	_, cancel, ok := p.observe(1, 500*cacheBlockSize, rl)
	if ok {
		t.Fatal("stream-breaking read must not open a window")
	}
	if want := len(w1) + len(w2); len(cancel) != want {
		t.Fatalf("cancel returned %d blocks, want %d", len(cancel), want)
	}
	if _, cancel2, _ := p.observe(1, 900*cacheBlockSize, rl); len(cancel2) != 0 {
		t.Fatalf("second break returned %d canceled blocks, want 0", len(cancel2))
	}
}

func TestPrefetcherStridedStream(t *testing.T) {
	var p prefetcher
	const stride = 3 * cacheBlockSize
	const rl = cacheBlockSize

	p.observe(1, 0, rl)
	p.observe(1, stride, rl) // establishes the stride
	if _, _, ok := p.observe(1, 2*stride, rl); ok {
		t.Fatal("strided streak of 1 must not arm")
	}
	blks, _, ok := p.observe(1, 3*stride, rl)
	if !ok {
		t.Fatal("third equal stride must open a strided window")
	}
	// Predicted reads extrapolate from the newest read (block 9) at
	// 3-block steps: 12, 15, 18, ... one block per predicted read.
	if len(blks) != minPrefetchBlocks {
		t.Fatalf("strided window size %d, want %d", len(blks), minPrefetchBlocks)
	}
	for i, b := range blks {
		if want := uint64(12 + 3*i); b != want {
			t.Fatalf("blks[%d]=%d, want %d", i, b, want)
		}
	}
}

// prefetchDirect runs the prefetch worker's two cache phases — plan,
// then install — around a plain store read of blocks [start, start+n),
// standing in for the worker's fan-out between them.
func prefetchDirect(t *testing.T, c *blockCache, v *volume, start uint64, n int) {
	t.Helper()
	blks := make([]uint64, n)
	for i := range blks {
		blks[i] = start + uint64(i)
	}
	var plan windowPlan
	if c.prefetchPlan(v, blks, &plan) == 0 {
		return
	}
	buf := make([]byte, n*cacheBlockSize)
	if err := v.store.ReadAt(buf, int64(start)*cacheBlockSize); err != nil {
		t.Fatal(err)
	}
	c.prefetchInstall(blks, &plan, buf)
}

// Residency accounting: installs charge prefResident, consumption and
// discard release it, and discard never touches dirty or demand state.

func TestPrefetchDiscardAccounting(t *testing.T) {
	pool := bufpool.New()
	store := NewMemStore(256 * cacheBlockSize)
	for blk := int64(0); blk < 8; blk++ {
		buf := bytes.Repeat([]byte{byte('A' + blk)}, cacheBlockSize)
		if err := store.WriteAt(buf, blk*cacheBlockSize); err != nil {
			t.Fatal(err)
		}
	}
	c := newBlockCache(64, pool)
	v := &volume{store: store, cache: c}

	prefetchDirect(t, c, v, 0, 8)
	if got := c.prefResident.Load(); got != 8 {
		t.Fatalf("prefResident after fill = %d, want 8", got)
	}

	// A demand hit consumes a prefetched block: the budget is released
	// and the hit counts as a prefetch hit, not a discardable block.
	dst := make([]byte, cacheBlockSize)
	if err := c.readBlock(v, 3, 0, cacheBlockSize, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 'D' {
		t.Fatalf("read block 3 = %q, want 'D'", dst[0])
	}
	if got := c.prefResident.Load(); got != 7 {
		t.Fatalf("prefResident after demand hit = %d, want 7", got)
	}
	if got := c.prefHits.Load(); got != 1 {
		t.Fatalf("prefHits = %d, want 1", got)
	}

	// A write claims another block: absorb clears its pref mark, so the
	// later discard must leave the dirty bytes alone.
	if err := c.absorb(v, 5, 0, cacheBlockSize, bytes.Repeat([]byte{'z'}, cacheBlockSize), false); err != nil {
		t.Fatal(err)
	}
	if got := c.prefResident.Load(); got != 6 {
		t.Fatalf("prefResident after absorb = %d, want 6", got)
	}

	// The stream dies: discarding the whole window drops only the six
	// still-speculative blocks.
	dropped := c.prefetchDiscard([]uint64{0, 1, 2, 3, 4, 5, 6, 7})
	if dropped != 6 {
		t.Fatalf("prefetchDiscard dropped %d, want 6", dropped)
	}
	if got := c.prefResident.Load(); got != 0 {
		t.Fatalf("prefResident after discard = %d, want 0", got)
	}
	if got := c.prefDiscards.Load(); got != 6 {
		t.Fatalf("prefDiscards = %d, want 6", got)
	}
	// The consumed block was re-fetched? No: a hit-consumed block leaves
	// pref state but stays resident, and the dirty block kept its bytes.
	if !c.readBlockHit(3, 0, cacheBlockSize, dst) || dst[0] != 'D' {
		t.Fatal("demand-consumed block must survive the discard")
	}
	if !c.readBlockHit(5, 0, cacheBlockSize, dst) || dst[0] != 'z' {
		t.Fatal("dirty block must survive the discard with its written bytes")
	}
	// The discarded ones are gone.
	if c.readBlockHit(1, 0, cacheBlockSize, dst) {
		t.Fatal("discarded block still resident")
	}
}

// Pinning integration: dirty blocks are unevictable, a shard full of
// dirty blocks refuses new installs, and both the read and write paths
// degrade to uncached service instead of evicting one.

func TestDirtyShardRefusesInstalls(t *testing.T) {
	pool := bufpool.New()
	store := NewMemStore(256 * cacheBlockSize)
	// Four one-slot shards: easy to fill wall-to-wall with dirty blocks.
	c := newBlockCache(4, pool)
	v := &volume{store: store, cache: c}

	pattern := func(b byte) []byte { return bytes.Repeat([]byte{b}, cacheBlockSize) }
	for blk := uint64(0); blk < 4; blk++ {
		if err := c.absorb(v, blk, 0, cacheBlockSize, pattern(byte('a'+blk)), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.dirtyCount.Load(); got != 4 {
		t.Fatalf("dirtyCount = %d, want 4", got)
	}

	// A fifth dirty block has nowhere to go: absorb must refuse rather
	// than evict an acked block.
	err := c.absorb(v, 10, 0, cacheBlockSize, pattern('x'), false)
	if err != errCacheBusy {
		t.Fatalf("absorb into full dirty shard: err=%v, want errCacheBusy", err)
	}

	// A demand read of an uncached block is served from the store
	// without installing (nothing to evict).
	if err := store.WriteAt(pattern('s'), 20*cacheBlockSize); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, cacheBlockSize)
	if err := c.readBlock(v, 20, 0, cacheBlockSize, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 's' {
		t.Fatalf("uncached read = %q, want 's'", dst[0])
	}
	if c.readBlockHit(20, 0, cacheBlockSize, dst) {
		t.Fatal("refused insert must not have installed the block")
	}

	// Prefetch over the full shard is refused, not forced.
	prefetchDirect(t, c, v, 30, 4)
	if got := c.prefResident.Load(); got != 0 {
		t.Fatalf("prefResident = %d, want 0 — speculation must not displace dirty blocks", got)
	}

	// All four dirty blocks still carry their acked bytes.
	for blk := uint64(0); blk < 4; blk++ {
		if !c.readBlockHit(blk, 0, cacheBlockSize, dst) || dst[0] != byte('a'+blk) {
			t.Fatalf("dirty block %d lost its bytes", blk)
		}
	}

	// Destaging unpins: after stage+unstage the shard accepts new blocks
	// again.
	buf := make([]byte, cacheBlockSize)
	for blk := uint64(0); blk < 4; blk++ {
		if !c.stage(blk, buf) {
			t.Fatalf("stage(%d) refused", blk)
		}
		if err := store.WriteAt(buf, int64(blk)*cacheBlockSize); err != nil {
			t.Fatal(err)
		}
	}
	c.unstage([]uint64{0, 1, 2, 3}, false)
	if err := c.absorb(v, 10, 0, cacheBlockSize, pattern('x'), false); err != nil {
		t.Fatalf("absorb after destage: %v", err)
	}
	if !c.readBlockHit(10, 0, cacheBlockSize, dst) || dst[0] != 'x' {
		t.Fatal("post-destage absorb must be resident")
	}
}

func TestRedirtiedBlockStaysPinned(t *testing.T) {
	pool := bufpool.New()
	store := NewMemStore(256 * cacheBlockSize)
	c := newBlockCache(4, pool)
	v := &volume{store: store, cache: c}

	w := bytes.Repeat([]byte{'1'}, cacheBlockSize)
	if err := c.absorb(v, 0, 0, cacheBlockSize, w, false); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cacheBlockSize)
	if !c.stage(0, buf) {
		t.Fatal("stage refused")
	}
	// Re-dirtied while its destage write is in flight: the unstage that
	// follows must keep it pinned for the next pass.
	if err := c.absorb(v, 0, 0, cacheBlockSize, bytes.Repeat([]byte{'2'}, cacheBlockSize), false); err != nil {
		t.Fatal(err)
	}
	c.unstage([]uint64{0}, false)
	if got := c.dirtyCount.Load(); got != 1 {
		t.Fatalf("dirtyCount = %d, want 1 (re-dirtied mid-flight)", got)
	}
	// Fill the shard, then overflow it: block 0 must never be the victim.
	for blk := uint64(1); blk < 4; blk++ {
		if err := c.readBlock(v, blk, 0, cacheBlockSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	for blk := uint64(8); blk < 16; blk++ {
		if err := c.readBlock(v, blk, 0, cacheBlockSize, buf); err != nil {
			t.Fatal(err)
		}
	}
	if !c.readBlockHit(0, 0, cacheBlockSize, buf) || buf[0] != '2' {
		t.Fatal("re-dirtied block was evicted or lost its second write")
	}
}
