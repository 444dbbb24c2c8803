package vvault

import (
	"bytes"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
	"github.com/v3storage/v3/internal/netv3"
)

// TestFlushNilClientTreatedAsFailedBarrier pins the durability contract
// of the cluster flush: an Up replica that cannot be issued a barrier
// (its client is gone) has acknowledged writes the barrier was supposed
// to cover, so Flush must fail and the replica must leave service with
// that debt recorded for resync — not be silently skipped while the
// cluster flush reports success.
func TestFlushNilClientTreatedAsFailedBarrier(t *testing.T) {
	const member = 1 << 20
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	_, addrB := startBackend(t, storeB, "127.0.0.1:0")
	cfg := testConfig(ModeMirror, member)
	// Park the probe loop: this test drives the state machine by hand and
	// must not race a probe tripping the severed backend first.
	cfg.ProbeInterval = 10 * time.Second
	v, err := Open([]string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	const off = 65536
	if err := v.Write(off, pattern(off, 1, 8192)); err != nil {
		t.Fatal(err)
	}

	// Sever replica B's client while its state still says Up — the exact
	// shape of the hazard: the backend has no stream to flush on, but the
	// flush loop sees a live replica.
	b := v.backends[1]
	b.mu.Lock()
	old := b.client
	b.client, b.data, b.rsync = nil, nil, nil
	b.mu.Unlock()
	if old != nil {
		old.Close()
	}

	if err := v.Flush(); err == nil {
		t.Fatal("Flush reported success while an Up replica took no barrier; its acked write is not durable anywhere on it")
	}
	st := v.Status()[1]
	if st.State != "down" {
		t.Fatalf("replica without a client left %q after the failed barrier, want down", st.State)
	}
	if st.DirtyBytes < 8192 {
		t.Fatalf("acked-but-unflushed write not owed for resync after the failed barrier: %+v", st)
	}
}

// TestResyncedBytesNetOfRequeues pins resync progress accounting: a
// recovery pass that fails is requeued and a later pass re-runs it, but
// the ResyncedBytes counter reports bytes brought back in sync — so
// replaying the same range twice must not count it twice. The recovered
// server absorbs every replay write into its cache; its failing store
// surfaces at the pass's closing flush, which trips the replica after the
// whole range was replayed once.
func TestResyncedBytesNetOfRequeues(t *testing.T) {
	const (
		member = 1 << 20
		blk    = 8192
	)
	storeA := netv3.NewMemStore(member)
	storeB := &faultStore{MemStore: netv3.NewMemStore(member)}
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	srvB, addrB := startBackend(t, storeB, "127.0.0.1:0")
	cfg := testConfig(ModeMirror, member)
	// One replay chunk per block.
	v, err := open([]string{addrA, addrB}, cfg, tuning{resyncChunk: blk})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Four flushed blocks while healthy: durable everywhere, never part
	// of any resync.
	for i := 0; i < 4; i++ {
		off := int64(i) * blk
		if err := v.Write(off, pattern(off, 1, blk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)
	trips0 := v.Status()[1].Trips

	// Four blocks written during the outage: exactly 4*blk unique bytes
	// of replay debt.
	for i := 4; i < 8; i++ {
		off := int64(i) * blk
		if err := v.Write(off, pattern(off, 2, blk)); err != nil {
			t.Fatal(err)
		}
	}

	// Let the first recovery pass replay every chunk and then fail its
	// flush, forcing a requeue and a second pass over ranges already
	// replayed once.
	storeB.failWrites.Store(true)
	_, _ = startBackend(t, storeB, addrB)
	deadline := time.Now().Add(15 * time.Second)
	for v.Status()[1].Trips == trips0 {
		if time.Now().After(deadline) {
			t.Fatal("first recovery pass never tripped on the injected fault")
		}
		time.Sleep(5 * time.Millisecond)
	}
	storeB.failWrites.Store(false)

	waitForState(t, v, 1, "up", 20*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// The replicas converge...
	bufA, bufB := make([]byte, 8*blk), make([]byte, 8*blk)
	if err := storeA.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("replicas diverged after requeued resync")
	}

	// ...and the counter reports the outage's unique bytes, not one count
	// per replay attempt of the same range.
	if got := v.Stats().ResyncReplayedBytes; got < 2*4*blk {
		t.Fatalf("ResyncReplayedBytes=%d: the outage's %d bytes were not replayed twice", got, 4*blk)
	}
	if got := v.Stats().ResyncedBytes; got != 4*blk {
		t.Fatalf("ResyncedBytes=%d after resyncing %d unique bytes (requeued replays double-counted?)", got, 4*blk)
	}
}

// TestMirrorReplicaRestartTripsAndResyncs is the contract line "a flushed
// write survives any crash" at vault scope, with the client configuration
// production runs (the other restart tests give up after one 10 ms retry,
// so their clients never meet the restarted server). A cached replica acks
// a generation of writes and its process dies before destaging them; a new
// process is serving the same address over the same store well inside the
// default reconnect budget (8 attempts, ~12 s). The vault must not ride
// that reconnect: the replica trips, its cursor rolls back to the flush
// watermark, resync replays the lost generation, and the stores end
// byte-identical. (A client that reconnects by itself leaves the replica
// up with its cursor past the lost writes: Flush returns nil and the
// stores differ for good.)
func TestMirrorReplicaRestartTripsAndResyncs(t *testing.T) {
	const member, blk, blocks = 1 << 20, 8192, 16
	scfg := netv3.DefaultServerConfig()
	scfg.CacheBlocks = 256
	store0, store1 := netv3.NewMemStore(member), netv3.NewMemStore(member)
	dying := faultnet.NewStore(store0, faultnet.StoreConfig{}) // takes no write once its process is "dying"
	srv0, addr0 := startBackendCfg(t, dying, "127.0.0.1:0", scfg)
	_, addr1 := startBackendCfg(t, store1, "127.0.0.1:0", scfg)

	cfg := testConfig(ModeMirror, member)
	cfg.Client = netv3.DefaultClientConfig()
	v, err := Open([]string{addr0, addr1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	writeGen := func(gen byte) {
		t.Helper()
		for i := int64(0); i < blocks; i++ {
			if err := v.Write(i*blk, pattern(i*blk, gen, blk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeGen(1)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// Generation 2 is acknowledged by both replicas; replica 0's copy never
	// leaves its process, which then dies and is replaced.
	dying.FailAll(true)
	writeGen(2)
	srv0.Close()
	startBackendCfg(t, store0, addr0, scfg)

	// The next write meets replica 0's client either still reconnecting or
	// already refused by the new process; both end in a trip, not in a
	// replay onto a server that never saw generation 2.
	if err := v.Write(0, pattern(0, 3, blk)); err != nil {
		t.Fatal(err)
	}
	if s := v.Status()[0]; s.Trips == 0 {
		t.Fatalf("replica 0 rode a server restart that lost %d acked writes: state=%s trips=0 reconnects=%d",
			blocks, s.State, s.Reconnects)
	}
	waitForState(t, v, 0, "up", 10*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	got0, got1 := make([]byte, member), make([]byte, member)
	if err := store0.ReadAt(got0, 0); err != nil {
		t.Fatal(err)
	}
	if err := store1.ReadAt(got1, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got0, got1) {
		t.Fatal("replicas differ after the restarted one resynced")
	}
	if !bytes.Equal(got0[:blk], pattern(0, 3, blk)) || !bytes.Equal(got0[blk:2*blk], pattern(blk, 2, blk)) {
		t.Fatal("restarted replica is missing writes acknowledged around its restart")
	}
	if s := v.Stats(); s.Resyncs == 0 || s.ResyncedBytes < blocks*blk {
		t.Fatalf("stats did not record the resync of the lost generation: %+v", s)
	}
}
