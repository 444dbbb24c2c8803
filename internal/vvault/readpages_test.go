package vvault

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/faultnet"
	"github.com/v3storage/v3/internal/netv3"
)

// batchOf returns the offsets and fresh buffers of a batch of pages of size
// bytes each, at page numbers 1, 3, 6, 10, …: no two gaps alike, so however
// the pages spread over the backends none of their read-ahead detectors
// sees a run or a stride, in one batch or in the same batch over and over.
func batchOf(pages, size int) ([]int64, [][]byte) {
	offs, bufs := make([]int64, pages), make([][]byte, pages)
	for i := range offs {
		offs[i], bufs[i] = int64((i+1)*(i+2)/2*size), make([]byte, size)
	}
	return offs, bufs
}

// seed writes gen's pattern over the first blocks blk-sized blocks.
func seed(t *testing.T, v *Vault, blocks, blk int, gen byte) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		if err := v.Write(int64(i*blk), pattern(int64(i*blk), gen, blk)); err != nil {
			t.Fatal(err)
		}
	}
}

// stamp writes seed's pattern straight into a replica's store, before a
// server exports it: nothing is in the server's cache, so its first read
// of each block reaches the store.
func stamp(t *testing.T, store netv3.BlockStore, blocks, blk int, gen byte) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		if err := store.WriteAt(pattern(int64(i*blk), gen, blk), int64(i*blk)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkBatch compares every page of a batch, blk bytes at a time, with
// what seed wrote there.
func checkBatch(t *testing.T, offs []int64, bufs [][]byte, blk int, gen byte) {
	t.Helper()
	for i, off := range offs {
		for at := 0; at < len(bufs[i]); at += blk {
			if !bytes.Equal(bufs[i][at:at+blk], pattern(off+int64(at), gen, blk)) {
				t.Fatalf("page %d (offset %d) holds the wrong bytes at +%d", i, off, at)
			}
		}
	}
}

// TestVaultReadPagesOneFanout: a batch of page reads is one fan-out on the
// caller's goroutine, mirrored and striped alike — right bytes, every page
// harvested once and in order, no goroutine started for it (counted while
// the batch is in flight, from the harvest callback), and an allocation
// count that is the sub-reads' own plus a constant, not a goroutine, two
// channels and a timer per page.
func TestVaultReadPagesOneFanout(t *testing.T) {
	const (
		member = 1 << 20
		blk    = 8192
		pages  = 6
	)
	for _, tc := range []struct {
		mode Mode
		page int // bytes per page: a striped page spans two backends
		// The measured count, plus the three a build with the race detector
		// adds to the striped batch (one to the mirrored). Per page a
		// mirrored read is one sub-read (its handle, on the client; the
		// cached server allocates nothing) and one extent list; a striped
		// 16 KB page over 8 KB stripes is two sub-reads and a two-extent
		// list that grew once. Per batch: the leg list, which the striped
		// batch, two legs a page, outgrows once. (The page-at-a-time batch
		// this replaced cost seven a page and a goroutine each.)
		budget float64
	}{
		{ModeMirror, blk, pages*2 + 1 + 3},
		{ModeStripe, 2 * blk, pages*4 + 2 + 3},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			scfg := netv3.DefaultServerConfig()
			scfg.CacheBlocks = 256
			_, addrA := startBackendCfg(t, netv3.NewMemStore(member), "127.0.0.1:0", scfg)
			_, addrB := startBackendCfg(t, netv3.NewMemStore(member), "127.0.0.1:0", scfg)
			cfg := testConfig(tc.mode, member)
			cfg.ProbeInterval = time.Minute // no probe inside the counted runs
			v, err := Open([]string{addrA, addrB}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			seed(t, v, (pages+1)*(pages+2)/2*tc.page/blk, blk, 1)

			offs, bufs := batchOf(pages, tc.page)
			var order []int
			goroutines := 0
			harvested := func(page int) {
				order = append(order, page)
				goroutines = max(goroutines, runtime.NumGoroutine())
			}
			batch := func() {
				order = order[:0]
				if err := v.ReadPages(offs, bufs, harvested); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ { // warm: blocks resident, pools and queues grown
				batch()
			}
			goroutines = 0
			before := runtime.NumGoroutine()
			batch()
			checkBatch(t, offs, bufs, blk, 1)
			if goroutines != before {
				t.Errorf("%d goroutines with the batch in flight, %d before it: a batch must start none", goroutines, before)
			}
			for i, pg := range order {
				if pg != i || len(order) != pages {
					t.Fatalf("pages harvested %v, want each of %d once, in order", order, pages)
				}
			}
			if n := testing.AllocsPerRun(100, batch); n > tc.budget {
				t.Errorf("%d-page batch: %.0f allocations, budget %.0f", pages, n, tc.budget)
			}
		})
	}
}

// TestVaultReadPagesSurvivesReplicaLoss: a replica that fails pages of a
// batch — by answering with errors, or by dying with them in flight — costs
// the caller nothing but time: every page is read again from the survivor,
// and the failed replica is charged once, however many of its pages failed.
func TestVaultReadPagesSurvivesReplicaLoss(t *testing.T) {
	const (
		member = 1 << 20
		blk    = 8192
		pages  = 6
	)
	// Both replicas are stamped before their servers start, so each page
	// is a miss that reaches the store. Replica B's store answers late, and
	// can be told to fail; B sits behind a listener that can be cut.
	setup := func(t *testing.T) (*Vault, *faultnet.Injector, *faultnet.Store) {
		memA, memB := netv3.NewMemStore(member), netv3.NewMemStore(member)
		for _, m := range []*netv3.MemStore{memA, memB} {
			stamp(t, m, (pages+1)*(pages+2)/2, blk, 1)
		}
		_, addrA := startBackend(t, memA, "127.0.0.1:0")
		storeB := faultnet.NewStore(memB, faultnet.StoreConfig{Latency: 20 * time.Millisecond})
		injB, addrB := startFaultBackendCfg(t, storeB, netv3.DefaultServerConfig())
		cfg := chaosConfig(ModeMirror, member)
		cfg.ProbeInterval = time.Minute // the data path alone charges and trips
		cfg.Client.KeepaliveInterval = 0
		v, err := open([]string{addrA, addrB}, cfg, tuning{errorThreshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v, injB, storeB
	}

	// The rotation starts at replica A and no read has moved it: pages 0, 2
	// and 4 of the first batch go to A, pages 1, 3 and 5 to B.
	t.Run("errors", func(t *testing.T) {
		v, _, storeB := setup(t)
		storeB.FailAll(true)
		offs, bufs := batchOf(pages, blk)
		if err := v.ReadPages(offs, bufs, nil); err != nil {
			t.Fatal(err)
		}
		checkBatch(t, offs, bufs, blk, 1)
		// B failed three legs of the first attempt and was charged for the
		// attempt; the retry moved all three pages on to A.
		if a, b := v.backends[0].consec.Load(), v.backends[1].consec.Load(); a != 0 || b != 1 {
			t.Fatalf("consecutive errors charged: A %d, B %d; want 0 and 1 (three failed legs, one charge)", a, b)
		}
		if st := v.Status()[1]; st.State != "up" || st.Trips != 0 {
			t.Fatalf("replica B after I/O errors under the threshold: %+v", st)
		}
	})

	t.Run("killed mid-batch", func(t *testing.T) {
		v, injB, _ := setup(t)
		offs, bufs := batchOf(pages, blk)
		var order []int
		err := v.ReadPages(offs, bufs, func(page int) {
			if order = append(order, page); len(order) == 1 {
				// Page 0 is back from A; B's three are inside its slow store.
				// B goes silent and every connection to it is cut.
				injB.Blackhole(true)
				injB.ResetAll()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, offs, bufs, blk, 1)
		if len(order) != pages {
			t.Fatalf("pages harvested %v, want each of %d once", order, pages)
		}
		if st := v.Status()[1]; st.State != "down" || st.Trips != 1 {
			t.Fatalf("replica B after dying mid-batch: %+v, want down, tripped once", st)
		}
		if st := v.Status()[0]; st.State != "up" || st.Consecutive != 0 {
			t.Fatalf("replica A: %+v, want up and uncharged", st)
		}
		if got := v.Stats().DegradedReads; got != pages {
			t.Fatalf("DegradedReads = %d, want %d: the batch completed with a replica out of rotation", got, pages)
		}
		// The next batch never goes near B.
		if err := v.ReadPages(offs, bufs, nil); err != nil {
			t.Fatal(err)
		}
		checkBatch(t, offs, bufs, blk, 1)
	})
}
