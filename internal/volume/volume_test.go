package volume

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestConcatMapping(t *testing.T) {
	c, err := NewConcat(100, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 350 || c.Members() != 3 {
		t.Fatalf("size=%d members=%d", c.Size(), c.Members())
	}
	ext, err := c.MapRead(90, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := []Extent{{Disk: 0, Offset: 90, Length: 10}, {Disk: 1, Offset: 0, Length: 20}}
	if len(ext) != 2 || ext[0] != want[0] || ext[1] != want[1] {
		t.Fatalf("ext=%v, want %v", ext, want)
	}
}

func TestConcatSpansThreeMembers(t *testing.T) {
	c, _ := NewConcat(10, 10, 10)
	ext, err := c.MapRead(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 3 || ext[0].Disk != 0 || ext[1].Disk != 1 || ext[2].Disk != 2 {
		t.Fatalf("ext=%v", ext)
	}
	if ext[0].Length+ext[1].Length+ext[2].Length != 20 {
		t.Fatalf("lengths don't sum: %v", ext)
	}
}

func TestConcatOutOfRange(t *testing.T) {
	c, _ := NewConcat(100)
	for _, tc := range []struct {
		off int64
		n   int
	}{{-1, 10}, {0, 101}, {100, 1}, {50, -1}} {
		if _, err := c.MapRead(tc.off, tc.n); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("off=%d n=%d: err=%v", tc.off, tc.n, err)
		}
	}
	// Zero-length at the boundary is legal.
	if _, err := c.MapRead(100, 0); err != nil {
		t.Fatalf("boundary zero-length read: %v", err)
	}
}

func TestConcatConstructorValidation(t *testing.T) {
	if _, err := NewConcat(); err == nil {
		t.Fatal("empty concat accepted")
	}
	if _, err := NewConcat(10, 0); err == nil {
		t.Fatal("zero-size member accepted")
	}
}

func TestStripeRoundRobin(t *testing.T) {
	s, err := NewStripe(4, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 400 {
		t.Fatalf("size=%d", s.Size())
	}
	// Offsets 0,10,20,30 land on disks 0,1,2,3; 40 wraps to disk 0 row 1.
	for i, wantDisk := range []int{0, 1, 2, 3, 0} {
		ext, err := s.MapRead(int64(i*10), 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext) != 1 || ext[0].Disk != wantDisk {
			t.Fatalf("offset %d: ext=%v, want disk %d", i*10, ext, wantDisk)
		}
	}
	ext, _ := s.MapRead(40, 10)
	if ext[0].Offset != 10 {
		t.Fatalf("row-1 member offset=%d, want 10", ext[0].Offset)
	}
}

func TestStripeSplitsAcrossBoundary(t *testing.T) {
	s, _ := NewStripe(2, 10, 100)
	ext, err := s.MapRead(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 2 || ext[0].Disk != 0 || ext[1].Disk != 1 {
		t.Fatalf("ext=%v", ext)
	}
	if ext[0].Length != 5 || ext[1].Length != 5 {
		t.Fatalf("lengths=%v", ext)
	}
}

func TestStripeGeometryValidation(t *testing.T) {
	if _, err := NewStripe(0, 10, 100); err == nil {
		t.Fatal("zero members accepted")
	}
	if _, err := NewStripe(2, 10, 105); err == nil {
		t.Fatal("non-multiple member size accepted")
	}
	if _, err := NewStripe(2, 0, 100); err == nil {
		t.Fatal("zero stripe accepted")
	}
}

// TestMirrorReadsGoHomeWritesFanOut pins the read routing: a block is read
// from the same replica on every call, a multi-block read goes where its
// first block does, and a write still fans out to every replica.
func TestMirrorReadsGoHomeWritesFanOut(t *testing.T) {
	inner, _ := NewConcat(1 << 30)
	m, err := NewMirror(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1<<30 || m.Members() != 2 {
		t.Fatalf("size=%d members=%d", m.Size(), m.Members())
	}
	for blk := int64(0); blk < 256; blk++ {
		want := replicaOf(t, m, blk<<homeShift, 512)
		for _, at := range []int64{0, 100, 1<<homeShift - 512} {
			if got := replicaOf(t, m, blk<<homeShift+at, 512); got != want {
				t.Fatalf("block %d byte %d read from replica %d, the block's first read from %d", blk, at, got, want)
			}
		}
		if got := replicaOf(t, m, blk<<homeShift, 3<<homeShift); got != want {
			t.Fatalf("3-block read at block %d went to replica %d, its first block's home is %d", blk, got, want)
		}
	}
	w, _ := m.MapWrite(0, 10)
	if len(w) != 2 || w[0].Disk == w[1].Disk {
		t.Fatalf("write fan-out wrong: %v", w)
	}
}

// replicaOf maps a read of a mirror over a one-member inner layout and
// returns the replica that serves it.
func replicaOf(t *testing.T, m *Mirror, off int64, n int) int {
	t.Helper()
	ext, err := m.MapRead(off, n)
	if err != nil || len(ext) != 1 {
		t.Fatalf("MapRead(%d, %d) = %v, %v", off, n, ext, err)
	}
	return ext[0].Disk
}

// TestMirrorHomesAreEvenShares: over 64k consecutive blocks each replica of
// a 2- and of a 3-replica mirror is home to its share of them within ±2 %.
func TestMirrorHomesAreEvenShares(t *testing.T) {
	const blocks = 1 << 16
	for _, replicas := range []int{2, 3} {
		inner, _ := NewConcat(blocks << homeShift)
		m, _ := NewMirror(inner, replicas)
		got := make([]int, replicas)
		for blk := int64(0); blk < blocks; blk++ {
			got[replicaOf(t, m, blk<<homeShift, 1<<homeShift)]++
		}
		share := float64(blocks) / float64(replicas)
		for r, n := range got {
			if dev := float64(n)/share - 1; dev < -0.02 || dev > 0.02 {
				t.Fatalf("%d replicas: replica %d is home to %d of %d blocks (%+.1f %% off its share)", replicas, r, n, blocks, 100*dev)
			}
		}
	}
}

func TestMirrorOverStripe(t *testing.T) {
	inner, _ := NewStripe(2, 10, 100)
	m, _ := NewMirror(inner, 2)
	if m.Members() != 4 {
		t.Fatalf("members=%d", m.Members())
	}
	w, err := m.MapWrite(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 2 extents per replica (stripe split), 2 replicas.
	if len(w) != 4 {
		t.Fatalf("extents=%v", w)
	}
	disks := map[int]bool{}
	for _, e := range w {
		disks[e.Disk] = true
	}
	if len(disks) != 4 {
		t.Fatalf("write should touch 4 distinct disks: %v", w)
	}
}

// TestMirrorMaskedMemberReads pins the degraded-mode read contract the
// cluster vault (internal/vvault) relies on: with a replica masked no read
// maps to it, the blocks it was home to spread over the survivors while
// every other block stays where it was, and unmasking brings each block
// back to its home.
func TestMirrorMaskedMemberReads(t *testing.T) {
	const blocks = 3000
	inner, _ := NewConcat(blocks << homeShift)
	m, _ := NewMirror(inner, 3)
	home := make([]int, blocks)
	for blk := range home {
		home[blk] = replicaOf(t, m, int64(blk)<<homeShift, 1<<homeShift)
	}
	m.SetMask(1, true)
	if !m.Masked(1) || m.Masked(0) || m.MaskedCount() != 1 {
		t.Fatalf("mask state wrong: %v %v %d", m.Masked(0), m.Masked(1), m.MaskedCount())
	}
	moved := make([]int, 3)
	for blk, h := range home {
		ext, err := m.MapRead(int64(blk)<<homeShift+10, 20)
		if err != nil {
			t.Fatal(err)
		}
		r := ext[0].Disk
		if want := (Extent{Disk: r, Offset: int64(blk)<<homeShift + 10, Length: 20}); len(ext) != 1 || ext[0] != want {
			t.Fatalf("block %d under mask: ext=%v, want %v", blk, ext, want)
		}
		switch {
		case r == 1:
			t.Fatalf("block %d read from masked replica 1", blk)
		case h != 1 && r != h:
			t.Fatalf("block %d moved from replica %d, which is not masked, to %d", blk, h, r)
		case h == 1:
			moved[r]++
		}
	}
	if moved[0] == 0 || moved[2] == 0 || moved[0]+moved[2] < blocks/4 {
		t.Fatalf("masked replica's blocks went %v to replicas 0 and 2; want a share to each", moved)
	}
	m.SetMask(1, false)
	for blk, h := range home {
		if r := replicaOf(t, m, int64(blk)<<homeShift, 1<<homeShift); r != h {
			t.Fatalf("after unmask block %d reads from replica %d, its home is %d", blk, r, h)
		}
	}
}

// TestMirrorConcurrentMapReadAndMask races reads against mask flips (run
// it under -race): every read maps to a replica, none of them to one that
// is masked for the whole run, and the mask ends as it was last set.
func TestMirrorConcurrentMapReadAndMask(t *testing.T) {
	inner, _ := NewConcat(1 << 24)
	m, _ := NewMirror(inner, 3)
	m.SetMask(2, true)
	stop, masked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(masked)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.SetMask(i%2, i%4 < 2)
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				ext, err := m.MapRead(int64(i*(g+1))<<homeShift%(1<<24), 512)
				if errors.Is(err, ErrNoReplica) {
					continue // replicas 0 and 1 both masked for a moment
				}
				if err != nil || len(ext) != 1 || ext[0].Disk == 2 {
					errs <- fmt.Errorf("read %d: %v, %v", i, ext, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	<-masked
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	m.SetMask(0, false)
	m.SetMask(1, true)
	if m.Masked(0) || !m.Masked(1) || !m.Masked(2) || m.MaskedCount() != 2 {
		t.Fatalf("mask after the race: %v %v %v, count %d", m.Masked(0), m.Masked(1), m.Masked(2), m.MaskedCount())
	}
}

// TestMirrorMapReadAfter: the retry mapping walks the ring from the replica
// that failed, passes masked replicas over, falls back on the failed one
// only when it is the last, and leaves the block's home where it was.
func TestMirrorMapReadAfter(t *testing.T) {
	inner, _ := NewConcat(1 << 20)
	m, err := NewMirror(inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	replica := func(ext []Extent, err error) int {
		t.Helper()
		if err != nil || len(ext) != 1 {
			t.Fatalf("mapping: %v, %v", ext, err)
		}
		return ext[0].Disk
	}
	home := replica(m.MapRead(0, 512))
	for failed, want := range []int{1, 2, 0} {
		if got := replica(m.MapReadAfter(0, 512, failed)); got != want {
			t.Fatalf("after replica %d failed: replica %d, want %d", failed, got, want)
		}
	}
	if got := replica(m.MapRead(0, 512)); got != home {
		t.Fatalf("three retries moved block 0: MapRead chose replica %d, its home is %d", got, home)
	}
	m.SetMask(1, true)
	if got := replica(m.MapReadAfter(0, 512, 0)); got != 2 {
		t.Fatalf("after replica 0 failed with 1 masked: replica %d, want 2", got)
	}
	m.SetMask(2, true)
	if got := replica(m.MapReadAfter(0, 512, 0)); got != 0 {
		t.Fatalf("after replica 0 failed with every other masked: replica %d, want 0 again", got)
	}
	m.SetMask(0, true)
	if _, err := m.MapReadAfter(0, 512, 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("every replica masked: %v, want ErrNoReplica", err)
	}
	if _, err := m.MapReadAfter(0, 512, 3); err == nil {
		t.Fatal("a replica the mirror does not have was accepted")
	}
}

// TestMirrorAllMaskedFails pins the fail-fast contract: a mirror with
// every replica masked cannot serve reads.
func TestMirrorAllMaskedFails(t *testing.T) {
	inner, _ := NewConcat(100)
	m, _ := NewMirror(inner, 2)
	m.SetMask(0, true)
	m.SetMask(1, true)
	if _, err := m.MapRead(0, 10); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err=%v, want ErrNoReplica", err)
	}
}

// TestMirrorMaskedMemberWrites pins the write fan-out under a mask:
// MapWrite still returns the masked replica's extents (here replica 1's
// copy of [30,+20)), which is exactly the extent set vvault records in
// the dead replica's dirty log and later replays during resync.
func TestMirrorMaskedMemberWrites(t *testing.T) {
	inner, _ := NewConcat(100)
	m, _ := NewMirror(inner, 2)
	m.SetMask(1, true)
	w, err := m.MapWrite(30, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []Extent{{Disk: 0, Offset: 30, Length: 20}, {Disk: 1, Offset: 30, Length: 20}}
	if len(w) != 2 || w[0] != want[0] || w[1] != want[1] {
		t.Fatalf("masked write fan-out: ext=%v, want %v", w, want)
	}
}

// TestMirrorOverStripeMasked pins the member-index arithmetic with a
// nested layout: masking replica 1 of a mirror-over-stripe keeps reads
// on members 0..1 and writes still cover members 2..3.
func TestMirrorOverStripeMasked(t *testing.T) {
	inner, _ := NewStripe(2, 10, 100)
	m, _ := NewMirror(inner, 2)
	m.SetMask(1, true)
	for i := 0; i < 3; i++ {
		ext, err := m.MapRead(5, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ext {
			if e.Disk >= 2 {
				t.Fatalf("read hit masked replica's member: %v", ext)
			}
		}
	}
	w, _ := m.MapWrite(5, 10)
	disks := map[int]bool{}
	for _, e := range w {
		disks[e.Disk] = true
	}
	for _, d := range []int{0, 1, 2, 3} {
		if !disks[d] {
			t.Fatalf("write fan-out missing member %d: %v", d, w)
		}
	}
}

func TestMirrorValidation(t *testing.T) {
	inner, _ := NewConcat(10)
	if _, err := NewMirror(inner, 1); err == nil {
		t.Fatal("single-replica mirror accepted")
	}
	if _, err := NewMirror(nil, 2); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewMirror(inner, maxReplicas); err != nil {
		t.Fatalf("%d-replica mirror refused: %v", maxReplicas, err)
	}
	if _, err := NewMirror(inner, maxReplicas+1); err == nil {
		t.Fatalf("%d-replica mirror accepted: its mask word has %d bits", maxReplicas+1, maxReplicas)
	}
}

func TestCoalesceMergesFullRow(t *testing.T) {
	// Reading a whole multiple-of-row region still splits per disk but
	// merges contiguous per-disk runs.
	s, _ := NewStripe(2, 10, 100)
	ext, _ := s.MapRead(0, 40)
	// Row 0: d0[0:10], d1[0:10]; row 1: d0[10:20], d1[10:20] — no adjacent
	// same-disk merges here, so expect 4.
	if len(ext) != 4 {
		t.Fatalf("ext=%v", ext)
	}
	var total int
	for _, e := range ext {
		total += e.Length
	}
	if total != 40 {
		t.Fatalf("coverage=%d", total)
	}
}

// Property: for any layout, mapped extents exactly tile the request —
// lengths sum to the request length, extents stay within member bounds,
// and (for concat/stripe) no two extents overlap on the same disk.
func TestMappingCoverageProperty(t *testing.T) {
	layouts := func() []Layout {
		c, _ := NewConcat(1000, 500, 2000)
		s, _ := NewStripe(3, 128, 1024)
		inner, _ := NewStripe(2, 64, 512)
		m, _ := NewMirror(inner, 2)
		return []Layout{c, s, m}
	}
	f := func(offRaw uint32, lenRaw uint16) bool {
		for _, l := range layouts() {
			off := int64(offRaw) % l.Size()
			length := int(lenRaw)
			if off+int64(length) > l.Size() {
				length = int(l.Size() - off)
			}
			rd, err := l.MapRead(off, length)
			if err != nil {
				return false
			}
			var sum int
			for _, e := range rd {
				if e.Length < 0 || e.Offset < 0 {
					return false
				}
				sum += e.Length
			}
			if sum != length {
				return false
			}
			wr, err := l.MapWrite(off, length)
			if err != nil {
				return false
			}
			sum = 0
			for _, e := range wr {
				sum += e.Length
			}
			// Mirrors fan out; writes cover a multiple of the length.
			if length > 0 && (sum == 0 || sum%length != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
