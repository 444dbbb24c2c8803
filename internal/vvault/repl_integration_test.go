package vvault

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

import "github.com/v3storage/v3/internal/netv3"

// failSyncStore wraps a MemStore with a switchable Sync fault: writes
// land (the replica's cache applies them) but the durability barrier
// fails — the exact shape of "crashed between replay and flush".
type failSyncStore struct {
	*netv3.MemStore
	failSync atomic.Bool
}

func (f *failSyncStore) Sync() error {
	if f.failSync.Load() {
		return errors.New("injected sync fault")
	}
	return f.MemStore.Sync()
}

// TestResyncCrashBetweenReplayAndFlushConverges pins the recovery
// protocol's hardest window: resync replays the outage data onto the
// replica, then the covering flush fails and the replica trips again —
// and whatever the replay put in the write-behind cache is lost (here:
// overwritten with garbage). The committed cursor must roll back to the
// watermark, so the next attempt replays the same ranges again instead
// of trusting the failed attempt, and the replicas end byte-identical.
func TestResyncCrashBetweenReplayAndFlushConverges(t *testing.T) {
	const (
		member = 1 << 20
		blk    = int64(8192)
	)
	storeA := netv3.NewMemStore(member)
	storeB := &failSyncStore{MemStore: netv3.NewMemStore(member)}
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	srvB, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// A flushed baseline on both replicas.
	for i := int64(0); i < 4; i++ {
		if err := v.Write(i*blk, pattern(i*blk, 1, int(blk))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// Kill B and write the outage blocks it will owe.
	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)
	trips0 := v.Status()[1].Trips
	for i := int64(4); i < 8; i++ {
		if err := v.Write(i*blk, pattern(i*blk, 2, int(blk))); err != nil {
			t.Fatal(err)
		}
	}

	// B returns, but every durability barrier fails: each recovery
	// attempt replays the outage ranges and then trips on the flush.
	storeB.failSync.Store(true)
	_, _ = startBackend(t, storeB, addrB)
	deadline := time.Now().Add(15 * time.Second)
	for v.Status()[1].Trips < trips0+1 {
		if time.Now().After(deadline) {
			t.Fatalf("resync flush fault never tripped the replica: %+v", v.Status()[1])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The crash: the replayed-but-unflushed data did not survive. If the
	// cursor had committed past the replay despite the failed barrier,
	// nothing would ever overwrite this garbage.
	garbage := make([]byte, 4*blk)
	for i := range garbage {
		garbage[i] = 0xEE
	}
	if err := storeB.WriteAt(garbage, 4*blk); err != nil {
		t.Fatal(err)
	}

	// Heal the barrier: the next attempt must replay the same ranges
	// again and bring the replica back for real.
	storeB.failSync.Store(false)
	waitForState(t, v, 1, "up", 20*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	bufA, bufB := make([]byte, 8*blk), make([]byte, 8*blk)
	if err := storeA.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("replicas diverged: the crash between replay and flush lost data")
	}
	if !bytes.Equal(bufB[4*blk:5*blk], pattern(4*blk, 2, int(blk))) {
		t.Fatal("garbage survived recovery in the outage region")
	}
}

// TestVaultFeedLiveCloneConverges drives the public change-feed API
// end-to-end: a clone consumer subscribes to a mirrored vault, catches
// up (the first batch covers the full volume), and follows the live
// tail while a writer keeps mutating the volume — converging
// byte-identically once the writer stops.
func TestVaultFeedLiveCloneConverges(t *testing.T) {
	const (
		member = 1 << 20
		blk    = int64(8192)
	)
	storeA := netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	_, addrB := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Content the clone has never seen: its first batch must cover it.
	if err := v.Write(member/2, pattern(member/2, 7, int(blk))); err != nil {
		t.Fatal(err)
	}

	feed, err := v.Subscribe("clone")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	clone := make([]byte, member)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	applyErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if !feed.Wait(stop) {
				return
			}
			b := feed.Poll(16)
			for _, e := range b.Fallback {
				if err := v.Read(e.Off, clone[e.Off:e.End]); err != nil {
					applyErr <- err
					return
				}
			}
			for _, r := range b.Records {
				if err := v.Read(r.Off, clone[r.Off:r.Off+r.Len]); err != nil {
					applyErr <- err
					return
				}
			}
			feed.Commit(b.Next)
		}
	}()

	for i := 0; i < 64; i++ {
		off := (int64(i*37) % (member/blk - 1)) * blk
		if err := v.Write(off, pattern(off, byte(2+i%5), int(blk))); err != nil {
			t.Fatal(err)
		}
	}

	// Writer done: the clone must drain to the log head, then match the
	// volume bit for bit.
	deadline := time.Now().Add(10 * time.Second)
	for feed.Cursor() < v.LogStatus().Head {
		select {
		case err := <-applyErr:
			t.Fatalf("clone apply: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("clone cursor stuck at %d of %d", feed.Cursor(), v.LogStatus().Head)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if cur, ok := v.FeedCursors()["clone"]; !ok || cur != v.LogStatus().Head {
		t.Fatalf("feed cursor not visible at head: %v", v.FeedCursors())
	}
	want := make([]byte, member)
	if err := v.Read(0, want[:member/2]); err != nil {
		t.Fatal(err)
	}
	if err := v.Read(member/2, want[member/2:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clone, want) {
		t.Fatal("clone diverged from the volume after the feed drained")
	}
}

// TestChaosVaultCursorCatchUpSkipsFullRescan pins the tentpole's fast
// path: an outage short enough to fit the log window is caught up by
// precise cursor replay — no extent-merge fallback, and the bytes
// replayed are exactly the outage's writes, not a full-range re-scan.
func TestChaosVaultCursorCatchUpSkipsFullRescan(t *testing.T) {
	const (
		member = 2 << 20
		blk    = int64(8192)
		outage = 8 // blocks written while the replica is away
	)
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	srvB, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Plenty of flushed history before the outage: a full re-scan (or a
	// dirty-everything fallback) would replay far more than the outage.
	for i := int64(0); i < 64; i++ {
		if err := v.Write(i*blk, pattern(i*blk, 1, int(blk))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)
	for i := int64(0); i < outage; i++ {
		off := (64 + i) * blk
		if err := v.Write(off, pattern(off, 2, int(blk))); err != nil {
			t.Fatal(err)
		}
	}

	_, _ = startBackend(t, storeB, addrB)
	waitForState(t, v, 1, "up", 20*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	st := v.Stats()
	if st.ResyncFallbacks != 0 {
		t.Fatalf("cursor catch-up took %d fallback passes; fast path must be precise record replay", st.ResyncFallbacks)
	}
	if want := int64(outage) * blk; st.ResyncedBytes != want {
		t.Fatalf("resynced %d bytes for a %d-byte outage: not incremental catch-up", st.ResyncedBytes, want)
	}
	if st.ResyncReplayedBytes < st.ResyncedBytes {
		t.Fatalf("gross replay %d < net %d", st.ResyncReplayedBytes, st.ResyncedBytes)
	}
	bufA, bufB := make([]byte, (64+outage)*blk), make([]byte, (64+outage)*blk)
	if err := storeA.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("replicas diverged after cursor catch-up")
	}
}

// TestChaosVaultTruncatedCursorFallback is the slow path: the outage
// outlives the log window (logRecords writes), so precise replay from
// the tripped replica's cursor is impossible and catch-up must take the
// extent-merge fallback — counted, and still byte-identical.
func TestChaosVaultTruncatedCursorFallback(t *testing.T) {
	const (
		member = 1 << 20
		blk    = int64(8192)
	)
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	srvB, addrB := startBackend(t, storeB, "127.0.0.1:0")
	cfg := testConfig(ModeMirror, member)
	// A tiny window: the outage below truncates past B's cursor.
	v, err := open([]string{addrA, addrB}, cfg, tuning{logRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	if err := v.Write(0, pattern(0, 1, int(blk))); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)
	for i := int64(1); i < 33; i++ { // 32 records through an 8-record window
		if err := v.Write(i*blk, pattern(i*blk, 2, int(blk))); err != nil {
			t.Fatal(err)
		}
	}

	_, _ = startBackend(t, storeB, addrB)
	waitForState(t, v, 1, "up", 20*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.ResyncFallbacks == 0 {
		t.Fatalf("truncated-cursor catch-up reported no fallback: %+v", st)
	}
	bufA, bufB := make([]byte, 33*blk), make([]byte, 33*blk)
	if err := storeA.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("replicas diverged after truncated-cursor fallback resync")
	}
}
