package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistEmpty(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Count() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Quantile(0.99) != 0 {
		t.Fatalf("empty hist not all-zero: count=%d mean=%v p50=%v", s.Count(), s.Mean(), s.Quantile(0.5))
	}
}

func TestHistSingleBucket(t *testing.T) {
	var h Hist
	const v = 1000 // all observations land in one bucket
	for i := 0; i < 100; i++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count() != 100 {
		t.Fatalf("count = %d, want 100", s.Count())
	}
	if got := s.Mean(); got != v {
		t.Fatalf("mean = %v, want %v (sum-based mean is exact)", got, v)
	}
	if s.Max != v {
		t.Fatalf("max = %d, want %d", s.Max, v)
	}
	// Quantiles have log2 resolution: the estimate must be within the
	// observation's bucket [512, 1024), clamped by the exact max.
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got < 512 || got > v {
			t.Fatalf("quantile(%v) = %v, want within [512,%d]", q, got, v)
		}
	}
}

func TestHistQuantileOrdering(t *testing.T) {
	var h Hist
	// Two well-separated populations: 90% fast (~1µs), 10% slow (~1ms).
	for i := 0; i < 900; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	p50, p99 := s.Quantile(0.5), s.Quantile(0.99)
	if p50 >= 2048 {
		t.Fatalf("p50 = %v, want in the fast population's bucket", p50)
	}
	if p99 < 512*1024 {
		t.Fatalf("p99 = %v, want in the slow population's bucket", p99)
	}
	if p50 > p99 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	wantMean := (900*1000 + 100*1_000_000) / 1000.0
	if got := s.Mean(); math.Abs(got-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}
}

func TestHistNonPositive(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count() != 2 || s.Buckets[0] != 2 {
		t.Fatalf("non-positive observations must land in bucket 0: %+v", s.Buckets[:2])
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	for i := 0; i < 10; i++ {
		a.Observe(100)
	}
	for i := 0; i < 30; i++ {
		b.Observe(100_000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count() != 40 {
		t.Fatalf("merged count = %d, want 40", s.Count())
	}
	if s.Sum != 10*100+30*100_000 {
		t.Fatalf("merged sum = %d", s.Sum)
	}
	if s.Max != 100_000 {
		t.Fatalf("merged max = %d, want 100000", s.Max)
	}
	// Merging an empty snapshot changes nothing.
	before := s
	s.Merge(HistSnapshot{})
	if s != before {
		t.Fatal("merge with empty snapshot changed the histogram")
	}
	// Merging into an empty snapshot yields the source.
	var e HistSnapshot
	e.Merge(before)
	if e != before {
		t.Fatal("merge into empty snapshot lost data")
	}
}

func TestHistConcurrent(t *testing.T) {
	r := New()
	h := r.Hist("lat")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(1 + w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != workers*perWorker {
		t.Fatalf("concurrent hist lost observations: %d != %d", s.Count(), workers*perWorker)
	}
}

func TestNilRegistryFastPath(t *testing.T) {
	var r *Registry
	// None of these may panic, and all reads come back zero.
	h := r.Hist("z")
	r.GaugeFunc("f", func() int64 { return 1 })
	r.GaugeSet("s", func() map[string]int64 { return map[string]int64{`{k="v"}`: 1} })
	h.Observe(123)
	if h.Snapshot().Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry wrote prometheus output")
	}
	snap := r.Snapshot()
	if len(snap.Gauges)+len(snap.Hists) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestPrometheusAndJSON(t *testing.T) {
	r := New()
	r.GaugeFunc("req_total", func() int64 { return 3 })
	r.GaugeSet("queued", func() map[string]int64 { return map[string]int64{`{lane="fg"}`: 2} })
	r.GaugeFunc(`backend_state{backend="0"}`, func() int64 { return 1 })
	h := r.Hist("lat_ns")
	h.Observe(1000)
	h.Observe(2000)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_total gauge", "req_total 3",
		"# TYPE queued gauge", `queued{lane="fg"} 2`,
		"# TYPE backend_state gauge", `backend_state{backend="0"} 1`,
		"# TYPE lat_ns summary", `lat_ns{quantile="0.5"}`,
		"lat_ns_sum 3000", "lat_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SnapshotJSON
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["req_total"] != 3 || snap.Gauges[`queued{lane="fg"}`] != 2 {
		t.Fatalf("JSON snapshot wrong: %+v", snap)
	}
	if hj := snap.Hists["lat_ns"]; hj.Count != 2 || hj.MeanNS != 1500 || hj.MaxNS != 2000 {
		t.Fatalf("JSON hist wrong: %+v", snap.Hists["lat_ns"])
	}
}

func TestBreakdownTable(t *testing.T) {
	r := New()
	r.Hist("stage_a").Observe(1000)
	r.Hist("stage_a").Observe(3000)
	r.Hist("stage_b").Observe(500)
	defs := []StageDef{
		{Display: "alpha", Metric: "stage_a"},
		{Display: "beta", Metric: "stage_b"},
		{Display: "gamma", Metric: "stage_missing"},
	}
	rows := Breakdown(r, defs)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Count != 2 || rows[0].MeanNS != 2000 {
		t.Fatalf("alpha row wrong: %+v", rows[0])
	}
	if rows[2].Count != 0 || rows[2].MeanNS != 0 {
		t.Fatalf("missing stage must yield a zero row: %+v", rows[2])
	}
	if got := SumMeanNS(rows); got != 2500 {
		t.Fatalf("stage-sum = %v, want 2500", got)
	}
	table := FormatBreakdown(rows, 2600)
	for _, want := range []string{"alpha", "beta", "stage sum", "measured e2e"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
