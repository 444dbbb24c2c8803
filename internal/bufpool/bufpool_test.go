package bufpool

import (
	"math/bits"
	"sync"
	"testing"
)

func TestClassCountMatchesBounds(t *testing.T) {
	want := bits.Len(uint(MaxClass)) - bits.Len(uint(MinClass)) + 1
	if classCount != want {
		t.Fatalf("classCount = %d, want %d", classCount, want)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, idx int
	}{
		{1, 0}, {512, 0}, {513, 1}, {1024, 1}, {1025, 2},
		{8192, 4}, {8193, 5}, {1 << 20, 11},
		{0, -1}, {-1, -1}, {1<<20 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.idx {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.idx)
		}
	}
	for idx := 0; idx < classCount; idx++ {
		sz := classSize(idx)
		if got := classFor(sz); got != idx {
			t.Errorf("classFor(classSize(%d)=%d) = %d", idx, sz, got)
		}
	}
}

func TestGetPutRecycles(t *testing.T) {
	p := New()
	b := p.Get(8192)
	if len(b) != 8192 || cap(b) != 8192 {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	b[0], b[8191] = 1, 2
	p.Put(b)
	// A short request from the same class reuses the slab (same pool,
	// single goroutine, so sync.Pool returns what we just put).
	c := p.Get(5000)
	if len(c) != 5000 || cap(c) != 8192 {
		t.Fatalf("len=%d cap=%d", len(c), cap(c))
	}
	st := p.Stats()
	if st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Allocs == 0 {
		t.Fatal("first Get must allocate")
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	p := New()
	b := p.Get(MaxClass + 1)
	if len(b) != MaxClass+1 {
		t.Fatal("oversize length wrong")
	}
	p.Put(b) // dropped, not pooled
	if st := p.Stats(); st.Oversz != 1 || st.Puts != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNilPoolDegradesToMake(t *testing.T) {
	var p *Pool
	b := p.Get(4096)
	if len(b) != 4096 {
		t.Fatal("nil pool Get wrong length")
	}
	p.Put(b)
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("stats %+v", st)
	}
}

func TestPutOddCapDropped(t *testing.T) {
	p := New()
	odd := make([]byte, 1000) // cap 1000 is not a class size
	p.Put(odd)
	if st := p.Stats(); st.Puts != 0 {
		t.Fatalf("odd-cap slab pooled: %+v", st)
	}
}

func TestConcurrent(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := p.Get(1 + i%MaxClass)
				b[0] = byte(i)
				p.Put(b)
			}
		}()
	}
	wg.Wait()
}

func BenchmarkGetPut8K(b *testing.B) {
	p := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf := p.Get(8192)
			p.Put(buf)
		}
	})
}

// TestGetPutAllocatesNothing pins the steady state the package exists
// for: recycling a slab costs no allocation, not even a slice header.
func TestGetPutAllocatesNothing(t *testing.T) {
	p := New()
	p.Put(p.Get(8192))
	if n := testing.AllocsPerRun(1000, func() { p.Put(p.Get(8192)) }); n != 0 {
		t.Fatalf("Get/Put of a pooled class: %.0f allocations, want 0", n)
	}
}
