package vvault

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/volume"
)

// startBackend runs one v3d-equivalent server on addr ("127.0.0.1:0"
// for ephemeral) over the given store, so a test can kill it and bring
// it back with the replica's data intact.
func startBackend(t testing.TB, store netv3.BlockStore, addr string) (*netv3.Server, string) {
	t.Helper()
	return startBackendCfg(t, store, addr, netv3.DefaultServerConfig())
}

// startBackendCfg is startBackend with a custom server config, for tests
// that need a backend with e.g. a smaller transfer bound.
func startBackendCfg(t testing.TB, store netv3.BlockStore, addr string, cfg netv3.ServerConfig) (*netv3.Server, string) {
	t.Helper()
	srv := netv3.NewServer(cfg)
	srv.AddVolume(1, store)
	a, err := srv.Listen(addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, a.String()
}

// faultStore wraps a MemStore with switchable write failures, so a
// backend can stay reachable (probes pass) while its data path fails —
// the exact shape of fault the error accounting must not be blind to.
type faultStore struct {
	*netv3.MemStore
	failWrites atomic.Bool
}

func (f *faultStore) WriteAt(b []byte, off int64) error {
	if f.failWrites.Load() {
		return errors.New("injected write fault")
	}
	return f.MemStore.WriteAt(b, off)
}

// testConfig returns a Config with failover timings tightened for tests.
func testConfig(mode Mode, member int64) Config {
	cfg := DefaultConfig(mode)
	cfg.MemberSize = member
	cfg.StripeSize = 8192
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.ProbeTimeout = 500 * time.Millisecond
	cfg.IOTimeout = 2 * time.Second
	cfg.Client.ReconnectBackoff = 10 * time.Millisecond
	cfg.Client.MaxReconnects = 1
	cfg.Client.DialTimeout = time.Second
	return cfg
}

// pattern fills a block with content derived from (offset, generation),
// so replica comparisons catch both lost writes and misplaced ones.
func pattern(off int64, gen byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(off>>13) ^ byte(i) ^ (gen * 31)
	}
	return b
}

// waitForState polls until backend idx reaches the wanted state.
func waitForState(t *testing.T, v *Vault, idx int, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if v.Status()[idx].State == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("backend %d never reached %q: status=%+v", idx, want, v.Status())
}

// deadAddr returns an address nothing listens on.
func deadAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestStripeRoundtrip(t *testing.T) {
	const member = 1 << 20
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	_, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeStripe, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Size() != 2*member {
		t.Fatalf("size=%d, want %d", v.Size(), 2*member)
	}
	// A write spanning several stripe units lands interleaved on both
	// backends and reads back intact.
	data := pattern(4096, 1, 40960)
	if err := v.Write(4096, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.Read(4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped read-back mismatch")
	}
	// Both members actually hold bytes: the interleave is real, not a
	// pass-through to one server.
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, st := range []*netv3.MemStore{storeA, storeB} {
		chunk := make([]byte, 8192)
		if err := st.ReadAt(chunk, 8192); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(chunk, make([]byte, 8192)) {
			t.Fatalf("member %d got no data", i)
		}
	}
}

func TestMirrorWriteFanOutAndReplicaEquality(t *testing.T) {
	const member = 1 << 20
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	_, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Size() != member {
		t.Fatalf("size=%d, want %d", v.Size(), member)
	}
	for off := int64(0); off < member; off += 65536 {
		if err := v.Write(off, pattern(off, 1, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	bufA, bufB := make([]byte, member), make([]byte, member)
	if err := storeA.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("mirror replicas diverged after healthy writes")
	}
	got := make([]byte, 8192)
	if err := v.Read(65536, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(65536, 1, 8192)) {
		t.Fatal("mirror read-back mismatch")
	}
}

// TestMirrorFailoverAndResync is the subsystem's flagship contract: a
// mirrored vault over two live backends keeps serving reads and writes
// with one backend killed mid-workload, and after the backend restarts
// (with its pre-kill data), resync replays the dirty extents until a
// full read-back shows both replicas byte-identical.
func TestMirrorFailoverAndResync(t *testing.T) {
	const (
		member  = 2 << 20
		blk     = 8192
		writers = 4
		perW    = 16 // blocks owned per writer
		gens    = 6
	)
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	srvB, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// A static region in the back half, written once while healthy, for
	// exact content checks during the outage.
	staticOff := int64(member / 2)
	staticData := pattern(staticOff, 9, 4*blk)
	if err := v.Write(staticOff, staticData); err != nil {
		t.Fatal(err)
	}

	// Writers hammer disjoint blocks in the front half through rising
	// generations; the workload spans the kill, the outage, and the
	// restart.
	var wrote atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for gen := byte(1); gen <= gens; gen++ {
				for i := 0; i < perW; i++ {
					off := int64((w*perW + i) * blk)
					if err := v.Write(off, pattern(off, gen, blk)); err != nil {
						errCh <- fmt.Errorf("writer %d gen %d off %d: %w", w, gen, off, err)
						return
					}
					wrote.Add(1)
				}
			}
		}(w)
	}

	// Kill backend B while the workload runs.
	for wrote.Load() < 30 {
		time.Sleep(time.Millisecond)
	}
	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)

	// Degraded: reads and writes keep working, served by the survivor.
	got := make([]byte, len(staticData))
	if err := v.Read(staticOff, got); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, staticData) {
		t.Fatal("degraded read returned wrong data")
	}
	if err := v.Write(staticOff+int64(len(staticData)), pattern(0, 7, blk)); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	if st := v.Status()[1]; st.DirtyBytes == 0 {
		t.Fatalf("no dirty extents logged for the dead replica: %+v", st)
	}

	// Restart B on the same address with its old (stale) data; resync
	// must replay everything written during the outage.
	_, _ = startBackend(t, storeB, addrB)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	waitForState(t, v, 1, "up", 20*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// Full read-back through fresh clients: both replicas byte-identical.
	cliA, err := netv3.Dial(addrA, netv3.DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cliA.Close()
	cliB, err := netv3.Dial(addrB, netv3.DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cliB.Close()
	bufA, bufB := make([]byte, 65536), make([]byte, 65536)
	for off := int64(0); off < member; off += 65536 {
		if err := cliA.Read(1, off, bufA); err != nil {
			t.Fatal(err)
		}
		if err := cliB.Read(1, off, bufB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("replicas differ at [%d,+65536) after resync", off)
		}
	}
	// And the logical content is the final generation everywhere.
	blkBuf := make([]byte, blk)
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			off := int64((w*perW + i) * blk)
			if err := v.Read(off, blkBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blkBuf, pattern(off, gens, blk)) {
				t.Fatalf("block at %d lost its final generation", off)
			}
		}
	}
	if s := v.Stats(); s.Resyncs == 0 || s.ResyncedBytes == 0 || s.DegradedWrites == 0 {
		t.Fatalf("stats did not record the episode: %+v", s)
	}
}

// TestStripeDegradedFailFast pins stripe-mode fault semantics: requests
// touching a dead member fail fast with ErrDegraded, requests that map
// entirely onto live members keep working.
func TestStripeDegradedFailFast(t *testing.T) {
	const member = 1 << 20
	_, addrA := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	srvB, addrB := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeStripe, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, 8192)
	if err := v.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)

	// Stripe unit 0 → backend 0: still served.
	if err := v.Read(0, buf); err != nil {
		t.Fatalf("read on live member failed: %v", err)
	}
	// Stripe unit 1 → backend 1: fail fast, clearly.
	if err := v.Read(8192, buf); !errors.Is(err, ErrDegraded) {
		t.Fatalf("read on dead member: err=%v, want ErrDegraded", err)
	}
	// A spanning write needs both members: fail fast too.
	if err := v.Write(0, make([]byte, 16384)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("spanning write: err=%v, want ErrDegraded", err)
	}
}

func TestMirrorAllReplicasDown(t *testing.T) {
	const member = 1 << 20
	srvA, addrA := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	srvB, addrB := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	srvA.Close()
	srvB.Close()
	waitForState(t, v, 0, "down", 10*time.Second)
	waitForState(t, v, 1, "down", 10*time.Second)
	if err := v.Read(0, make([]byte, 512)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("read with all replicas down: err=%v, want ErrDegraded", err)
	}
	if err := v.Write(0, make([]byte, 512)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write with all replicas down: err=%v, want ErrDegraded", err)
	}
	// The durability barrier must not report success when it reached no
	// replica at all.
	if err := v.Flush(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("flush with all replicas down: err=%v, want ErrDegraded", err)
	}
}

// TestMirrorOpenWithDeadReplica: the vault comes up degraded when a
// replica is unreachable at Open, with the whole volume pre-dirtied so
// recovery implies a full resync.
func TestMirrorOpenWithDeadReplica(t *testing.T) {
	const member = 1 << 20
	_, addrA := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	v, err := Open([]string{addrA, deadAddr(t)}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	st := v.Status()
	if st[1].State != "down" || st[1].DirtyBytes != member {
		t.Fatalf("dead replica not marked fully dirty: %+v", st[1])
	}
	data := pattern(0, 3, 8192)
	if err := v.Write(0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded-from-open read-back mismatch")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, DefaultConfig(ModeStripe)); err == nil {
		t.Fatal("no addresses accepted")
	}
	cfg := DefaultConfig(ModeMirror)
	cfg.MemberSize = 1 << 20
	if _, err := Open([]string{"x"}, cfg); err == nil {
		t.Fatal("single-backend mirror accepted")
	}
	cfg = DefaultConfig(ModeStripe)
	if _, err := Open([]string{"x", "y"}, cfg); err == nil {
		t.Fatal("zero MemberSize accepted")
	}
	cfg.MemberSize = 100 // not a multiple of the stripe unit
	if _, err := Open([]string{"x", "y"}, cfg); err == nil {
		t.Fatal("non-multiple MemberSize accepted")
	}
}

// TestVaultUsesMirrorMapping pins that the vault drives the volume
// package's Mirror, so read routing is observable at the backends: reads of
// eight blocks, which have homes on both replicas, reach both.
func TestVaultUsesMirrorMapping(t *testing.T) {
	const member = 1 << 20
	srvA, addrA := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	srvB, addrB := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, 512)
	baseA, baseB := srvA.Served(), srvB.Served()
	for i := int64(0); i < 8; i++ {
		if err := v.Read(i*8192, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Probes also generate requests, so just require both backends saw
	// data traffic beyond their baselines.
	if srvA.Served() == baseA || srvB.Served() == baseB || srvA.Served()+srvB.Served() < baseA+baseB+8 {
		t.Fatalf("reads of eight blocks did not reach both replicas: A=%d B=%d", srvA.Served()-baseA, srvB.Served()-baseB)
	}
	_ = volume.Extent{} // keep the volume import honest about intent
}

// TestMirrorCachesPartition pins what routing a read by its block buys a
// mirror: each replica's cache holds the blocks at home there, not a copy
// of the other's. The read working set is 1.5x one server's cache, so no
// single cache can hold it, but the two together can; after one warm pass
// in one random order, a pass in another order hits at least 90 % of the
// time over both caches. (A rotation over replicas sends a block to
// either cache, both fill with the same blocks, and this reads 0.47.)
func TestMirrorCachesPartition(t *testing.T) {
	const (
		blk       = 8192
		cacheBlks = 1024
		working   = cacheBlks * 3 / 2
		member    = 2 * working * blk
	)
	scfg := netv3.DefaultServerConfig()
	scfg.CacheBlocks = cacheBlks
	var srvs []*netv3.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		store := netv3.NewMemStore(member)
		stamp(t, store, working, blk, 1)
		srv, addr := startBackendCfg(t, store, "127.0.0.1:0", scfg)
		srvs, addrs = append(srvs, srv), append(addrs, addr)
	}
	cfg := testConfig(ModeMirror, member)
	cfg.ProbeInterval = time.Minute
	v, err := Open(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	rng := rand.New(rand.NewSource(46))
	buf := make([]byte, blk)
	pass := func() (hits, misses int64) {
		for _, srv := range srvs {
			h, m := srv.CacheStats()
			hits, misses = hits-h, misses-m
		}
		for _, b := range rng.Perm(working) {
			off := int64(b) * blk
			if err := v.Read(off, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, pattern(off, 1, blk)) {
				t.Fatalf("block %d read back wrong", b)
			}
		}
		for _, srv := range srvs {
			h, m := srv.CacheStats()
			hits, misses = hits+h, misses+m
		}
		return hits, misses
	}
	pass() // warm
	hits, misses := pass()
	if ratio := float64(hits) / float64(hits+misses); ratio < 0.9 {
		t.Fatalf("hit ratio over both caches %.2f (%d hits, %d misses) on a working set 1.5x one cache; want >= 0.90",
			ratio, hits, misses)
	}
}

// TestMirrorWriteFailureTripsReplica pins the no-stale-reads contract: a
// replica whose store fails a mirror write keeps answering probes, but it
// would hold stale data for an extent the vault acknowledged — so it must
// be masked from reads at once, not linger Up until an error threshold
// that passing probes keep resetting. The server acknowledges the write
// from its cache and meets the store's failure when it destages it: until
// then the replica serves the fresh bytes from its cache, and the failure
// surfaces on the vault's next Flush, which trips the replica.
func TestMirrorWriteFailureTripsReplica(t *testing.T) {
	const member = 1 << 20
	storeA := netv3.NewMemStore(member)
	storeB := &faultStore{MemStore: netv3.NewMemStore(member)}
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	_, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	const off = 9 * 8192 // a block at home on B: B serves its reads while it is up
	stale := pattern(off, 1, 8192)
	if err := v.Write(off, stale); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}

	// B's store fails the write (B keeps serving reads and probes). The
	// vault write succeeds — both servers absorbed it — and B's store is
	// stale there from its first failed destage on.
	storeB.failWrites.Store(true)
	fresh := pattern(off, 2, 8192)
	if err := v.Write(off, fresh); err != nil {
		t.Fatalf("mirror write with one faulty replica: %v", err)
	}
	// Every read must serve the acknowledged data — from B's cache while
	// B serves reads, from A once it is masked; a read that reached
	// B's store would hand back the stale generation.
	got := make([]byte, len(fresh))
	readFresh := func(when string) {
		t.Helper()
		for i := 0; i < 16; i++ {
			if err := v.Read(off, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fresh) {
				t.Fatalf("read %d %s returned stale data after acknowledged write", i, when)
			}
		}
	}
	readFresh("before the flush")
	if err := v.Flush(); err == nil || !strings.Contains(err.Error(), addrB) {
		t.Fatalf("flush over B's failing store: %v, want B's flush failure", err)
	}
	waitForState(t, v, 1, "down", 10*time.Second)
	readFresh("after the trip")

	// Heal the store: resync replays the dirty extent and the replicas
	// converge again.
	storeB.failWrites.Store(false)
	waitForState(t, v, 1, "up", 20*time.Second)
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	bufA, bufB := make([]byte, 8192), make([]byte, 8192)
	if err := storeA.ReadAt(bufA, off); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) || !bytes.Equal(bufA, fresh) {
		t.Fatal("replicas did not converge on the acknowledged write after resync")
	}
}

// TestTripMarksUnflushedWritesDirty pins the write-behind hazard: v3d
// acknowledges writes before destaging them, so a write acked by a
// replica that then crashes may be lost — the trip must leave it in the
// dirty log for resync even though the write itself never failed.
func TestTripMarksUnflushedWritesDirty(t *testing.T) {
	const member = 1 << 20
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	srvB, addrB := startBackend(t, storeB, "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// A flushed write is durable everywhere: it must NOT come back dirty.
	if err := v.Write(0, pattern(0, 1, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	// An acked-but-unflushed write is durable nowhere on B if B crashes.
	const off = 131072
	if err := v.Write(off, pattern(off, 2, 8192)); err != nil {
		t.Fatal(err)
	}
	srvB.Close()
	waitForState(t, v, 1, "down", 10*time.Second)
	st := v.Status()[1]
	if st.DirtyBytes != 8192 || st.DirtyRanges != 1 {
		t.Fatalf("dirty log after crash = %d bytes in %d ranges, want exactly the unflushed write (8192 in 1)", st.DirtyBytes, st.DirtyRanges)
	}
}

// TestRecoveredBackendClampsMaxTransfer pins recovery against a backend
// whose transfer bound is smaller than the cluster's: a replica that was
// unreachable at Open must contribute its MaxTransfer when it joins, or
// resync and mirror writes chunked at the old cap would be rejected and
// wedge recovery.
func TestRecoveredBackendClampsMaxTransfer(t *testing.T) {
	const member = 256 << 10
	storeA, storeB := netv3.NewMemStore(member), netv3.NewMemStore(member)
	_, addrA := startBackend(t, storeA, "127.0.0.1:0")
	addrB := deadAddr(t)
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.Write(0, pattern(0, 1, member)); err != nil {
		t.Fatal(err)
	}

	// B joins late with a 64 KB bound; the whole volume is pre-dirtied,
	// so resync itself must already honour the smaller cap.
	smallCfg := netv3.DefaultServerConfig()
	smallCfg.MaxXfer = 64 << 10
	startBackendCfg(t, storeB, addrB, smallCfg)
	waitForState(t, v, 1, "up", 20*time.Second)
	if got := v.maxIO(); got != 64<<10 {
		t.Fatalf("maxIO after recovery = %d, want %d", got, 64<<10)
	}

	// A transfer above B's bound still succeeds, chunked at the new cap.
	data := pattern(0, 3, 128<<10)
	if err := v.Write(0, data); err != nil {
		t.Fatalf("large write after clamp: %v", err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	bufA, bufB := make([]byte, len(data)), make([]byte, len(data))
	if err := storeA.ReadAt(bufA, 0); err != nil {
		t.Fatal(err)
	}
	if err := storeB.ReadAt(bufB, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, data) || !bytes.Equal(bufB, data) {
		t.Fatal("replicas diverged after clamped large write")
	}
}

func TestZeroLengthProbeOp(t *testing.T) {
	const member = 1 << 20
	_, addrA := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	_, addrB := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	v, err := Open([]string{addrA, addrB}, testConfig(ModeMirror, member))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// The probe op is a zero-length read; the public API accepts it too.
	if err := v.Read(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := v.Read(v.Size(), []byte{}); err != nil {
		t.Fatal(err) // boundary zero-length is legal, like the layouts
	}
	if err := v.Read(v.Size()+1, []byte{}); err == nil {
		t.Fatal("out-of-range zero-length read accepted")
	}
}

// TestVaultOpAllocBudget pins the vault's bookkeeping cost per operation,
// counted over the whole process (client, both in-process servers, the
// replication log): a mirrored 8 KB write is two cached sub-writes — a
// handle each, nothing else: no channel, no timer — and the fan-out's leg
// list, three in all (four now and then under the race detector; its range
// check maps no extents); a read is one sub-read, one extent list and the
// leg list. Each budget is that count plus one.
func TestVaultOpAllocBudget(t *testing.T) {
	const (
		member = 1 << 20
		blk    = 8192
	)
	scfg := netv3.DefaultServerConfig()
	scfg.CacheBlocks = 256
	_, addrA := startBackendCfg(t, netv3.NewMemStore(member), "127.0.0.1:0", scfg)
	_, addrB := startBackendCfg(t, netv3.NewMemStore(member), "127.0.0.1:0", scfg)
	cfg := testConfig(ModeMirror, member)
	cfg.ProbeInterval = time.Minute // no probe inside the counted runs
	v, err := Open([]string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	buf := pattern(0, 1, blk)
	op := func(f func(int64, []byte) error) func() {
		return func() {
			// One block over and over: no run and no stride for either
			// server's read-ahead detector to predict from.
			if err := f(3*blk, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	write, read := op(v.Write), op(v.Read)
	for i := 0; i < 64; i++ { // warm: blocks resident, pools and queues grown
		write()
		read()
	}
	if n := testing.AllocsPerRun(200, write); n > 4 {
		t.Errorf("mirrored 8 KB write: %.0f allocations, budget 4", n)
	}
	if n := testing.AllocsPerRun(200, read); n > 4 {
		t.Errorf("mirrored 8 KB read: %.0f allocations, budget 4", n)
	}
}
