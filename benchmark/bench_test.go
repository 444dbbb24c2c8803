package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSamplerPercentilesAreNearestRank(t *testing.T) {
	s := newSampler(1000)
	for i := 100; i >= 1; i-- { // 1..100 µs, inserted backwards
		s.add(time.Duration(i) * time.Microsecond)
	}
	sorted := s.sorted()
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {90.5, 91}} {
		if got := percentileUS(sorted, c.p); got != c.want {
			t.Errorf("p%g = %g us, want %g", c.p, got, c.want)
		}
	}
	if got := s.meanUS(); got != 50.5 {
		t.Errorf("mean = %g us, want 50.5", got)
	}
	if got := percentileUS(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSamplerCountsWhatItDrops(t *testing.T) {
	s := newSampler(4)
	for i := 0; i < 10; i++ {
		s.add(time.Microsecond)
	}
	if s.count() != 10 || s.dropped() != 6 || len(s.sorted()) != 4 {
		t.Fatalf("count=%d dropped=%d kept=%d, want 10, 6, 4", s.count(), s.dropped(), len(s.sorted()))
	}
	s.add(10 * time.Second) // beyond uint32 nanoseconds: saturates, never wraps
	if s.meanUS() < 900_000 {
		t.Fatalf("mean %g us lost the 10 s sample", s.meanUS())
	}
}

func TestSamplerConcurrentAdds(t *testing.T) {
	s := newSampler(8000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.add(time.Duration(i+1) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	sorted := s.sorted()
	if len(sorted) != 8000 || sorted[0] != 1 || sorted[7999] != 1000 {
		t.Fatalf("kept %d samples, min %d, max %d", len(sorted), sorted[0], sorted[len(sorted)-1])
	}
}

func TestMaxPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {500_000, 99.99}, {1_000_000, 99.999}} {
		if got := maxPercentile(c.n); got != c.want {
			t.Errorf("maxPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func drawOps(seed int64, n int) []op {
	const blocks, window = 64, 16
	g := newOpGen(seed, blocks, 30, make([]uint32, blocks), make([]bool, blocks), 0, 1)
	ring := make([]*op, window)
	var out []op
	for i := 0; i < n; i++ {
		if o := ring[i%window]; o != nil {
			g.done(*o, false)
		}
		o := g.next()
		ring[i%window] = &o
		out = append(out, o)
	}
	return out
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a, b, c := drawOps(7, 5000), drawOps(7, 5000), drawOps(8, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different op streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same op stream")
	}
	writes := 0
	for _, o := range a {
		if o.write {
			writes++
		}
	}
	if share := float64(writes) / float64(len(a)); math.Abs(share-0.30) > 0.03 {
		t.Fatalf("write share %.3f, want about 0.30", share)
	}
}

func TestGeneratorNeverSharesABlockInFlight(t *testing.T) {
	const blocks, window = 24, 16 // small working set: collisions are likely
	g := newOpGen(3, blocks, 50, make([]uint32, blocks), make([]bool, blocks), 0, 1)
	ring := make([]*op, window)
	last := make([]uint32, blocks) // last version acknowledged per block
	for i := 0; i < 20_000; i++ {
		if o := ring[i%window]; o != nil {
			if o.write {
				last[o.block] = o.version
			}
			g.done(*o, false)
		}
		o := g.next()
		for _, other := range ring {
			if other != nil && other != ring[i%window] && other.block == o.block {
				t.Fatalf("op %d drew block %d while it was in flight", i, o.block)
			}
		}
		want := last[o.block]
		if o.write {
			want++
		}
		if o.version != want {
			t.Fatalf("op %d on block %d carries version %d, want %d", i, o.block, o.version, want)
		}
		ring[i%window] = &o
	}
}

func TestLanesPartitionTheBlocks(t *testing.T) {
	const blocks, lanes = 64, 8
	versions, unknown := make([]uint32, blocks), make([]bool, blocks)
	for lane := 0; lane < lanes; lane++ {
		g := newOpGen(1, blocks, 50, versions, unknown, lane, lanes)
		for i := 0; i < 500; i++ {
			o := g.next()
			if int(o.block)%lanes != lane || o.block >= blocks {
				t.Fatalf("lane %d drew block %d", lane, o.block)
			}
			g.done(o, false)
		}
	}
}

func TestVerifierCatchesStaleAndCorruptBlocks(t *testing.T) {
	const blocks = 16
	vol := make([]byte, blocks*blockSize)
	versions, unknown := make([]uint32, blocks), make([]bool, blocks)
	for b := 0; b < blocks; b++ {
		versions[b] = uint32(b % 3)
		fillBlock(vol[b*blockSize:(b+1)*blockSize], uint64(b), versions[b])
	}
	readAt := func(p []byte, off int64) error { copy(p, vol[off:]); return nil }
	if bad, first := verifyVolume(readAt, versions, unknown); bad != 0 {
		t.Fatalf("clean volume: %d bad blocks (%s)", bad, first)
	}

	fillBlock(vol[5*blockSize:6*blockSize], 5, versions[5]+1) // a write nobody acknowledged
	vol[9*blockSize+4000] ^= 1                                // one flipped bit mid-block
	fillBlock(vol[2*blockSize:3*blockSize], 3, versions[3])   // another block's content
	bad, first := verifyVolume(readAt, versions, unknown)
	if bad != 3 || first == "" {
		t.Fatalf("found %d bad blocks (%q), want 3", bad, first)
	}

	unknown[5], unknown[9], unknown[2] = true, true, true // failed writes: content undefined
	if bad, _ := verifyVolume(readAt, versions, unknown); bad != 0 {
		t.Fatalf("blocks with failed writes must not be judged: %d bad", bad)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("got %g %g %g, want 1 2 3", q1, med, q3)
	}
}

func TestShapeSkipsFieldsThatAreGone(t *testing.T) {
	cfg := struct {
		Depth int
		On    bool
	}{}
	var sh shape
	sh.set(&cfg, "Depth", 64)
	sh.set(&cfg, "On", true)
	sh.set(&cfg, "DeletedByALaterCommit", 1)
	sh.set(&cfg, "On", "not a bool")
	if cfg.Depth != 64 || !cfg.On {
		t.Fatalf("fields not applied: %+v", cfg)
	}
	if !reflect.DeepEqual(sh.skipped, []string{"DeletedByALaterCommit", "On"}) {
		t.Fatalf("skipped = %v", sh.skipped)
	}
	type counters struct {
		Runs  int64
		Ratio float64
		Hist  [3]int64
		name  string
	}
	got := flatten(reflect.ValueOf(counters{Runs: 3, Ratio: 0.5}))
	if !reflect.DeepEqual(got, stats{"Runs": 3, "Ratio": 0.5}) {
		t.Fatalf("flatten = %v", got)
	}
	if s := callStats(&cfg, "NoSuchMethod"); len(s) != 0 {
		t.Fatalf("a missing stats method must yield nothing, got %v", s)
	}
}

// Eight slices, two of them disturbed: the quiet quarter is the two
// fastest, pooled by time, ops, CPU and read samples — the disturbed
// slices and the merely average ones do not reach the result.
func TestQuietSlicesPoolTheFastestQuarter(t *testing.T) {
	reads := newSampler(64)
	t0 := time.Unix(0, 0)
	ticks := []tick{{at: t0}}
	rates := []int64{100, 40, 120, 100, 45, 100, 110, 100} // ops per 250 ms slice
	for i, r := range rates {
		for j := 0; j < 3; j++ {
			reads.add(time.Duration(1000/r) * time.Millisecond) // slower slice, longer reads
		}
		last := ticks[len(ticks)-1]
		ticks = append(ticks, tick{at: t0.Add(time.Duration(i+1) * sliceLen), ops: last.ops + r, reads: reads.count(), cpuUS: last.cpuUS + 1000})
	}
	all := slicesOf(ticks, reads)
	if len(all) != len(rates) {
		t.Fatalf("%d slices from %d ticks", len(all), len(ticks))
	}
	quiet := quietSlices(all)
	if len(quiet) != 2 || quiet[0].ops != 120 || quiet[1].ops != 110 {
		t.Fatalf("quiet slices = %+v, want the 120 and the 110", quiet)
	}
	q := pooled(quiet)
	if q.dur != 2*sliceLen || q.ops != 230 || q.cpuUS != 2000 || len(q.reads) != 6 {
		t.Fatalf("pooled = %+v", q)
	}
	if got := q.opsPerS(); got != 460 {
		t.Errorf("ops/s = %g, want 460", got)
	}
	if got := percentileUS(q.reads, 50); got != 8000 { // 1000/120 = 8 ms three times, then 9 ms
		t.Errorf("read p50 = %g us, want 8000", got)
	}
	if one := quietSlices(all[:1]); len(one) != 1 {
		t.Errorf("a single slice must be its own quiet share, got %d", len(one))
	}
}

// BENCHMARK.json is the contract the driver reads; the code's lists are
// what the program prints. They must say the same thing.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	f, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the code", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q, code has %q", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(file), len(code))
		}
		for i := range file {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit || file[i].Better != code[i].Better {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	sawSetup := false
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
}
