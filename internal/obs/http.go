package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promBase strips a label set from a metric name for # TYPE lines:
// `vvault_backend_state{backend="0"}` → `vvault_backend_state`.
func promBase(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel splices a label pair into a (possibly already labeled)
// metric name: `h{a="b"}` + `quantile="0.5"` → `h{a="b",quantile="0.5"}`.
func withLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format: gauges as single samples, histograms as summaries
// (quantiles + _sum/_count, all in nanoseconds). Safe on a nil registry
// (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	gauges := make(map[string]int64, len(r.gaugeFns))
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for k, fn := range r.gaugeFns {
		fns[k] = fn
	}
	sets := make(map[string]func() map[string]int64, len(r.gaugeSets))
	for k, fn := range r.gaugeSets {
		sets[k] = fn
	}
	hists := make(map[string]HistSnapshot, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h.Snapshot()
	}
	r.mu.Unlock()
	// Callback gauges run outside the registry lock: they may take other
	// locks (server stats, cache shards) that must not nest under ours.
	for k, fn := range fns {
		gauges[k] = fn()
	}
	for name, fn := range sets {
		for lbl, v := range fn() {
			gauges[name+lbl] = v
		}
	}

	for _, k := range sortedKeys(gauges) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", promBase(k), k, gauges[k])
	}
	for _, k := range sortedKeys(hists) {
		s := hists[k]
		fmt.Fprintf(w, "# TYPE %s summary\n", promBase(k))
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "%s %g\n", withLabel(k, fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q))), s.Quantile(q))
		}
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", k, s.Sum, k, s.Count())
	}
}

// HistJSON is a histogram's JSON snapshot form.
type HistJSON struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P95NS  float64 `json:"p95_ns"`
	P99NS  float64 `json:"p99_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// SnapshotJSON is the whole registry as one JSON-marshalable value.
type SnapshotJSON struct {
	Gauges map[string]int64    `json:"gauges"`
	Hists  map[string]HistJSON `json:"hists"`
}

// Snapshot captures every metric for the JSON endpoint (and for tests).
// Safe on a nil registry (returns empty maps).
func (r *Registry) Snapshot() SnapshotJSON {
	out := SnapshotJSON{
		Gauges: map[string]int64{},
		Hists:  map[string]HistJSON{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for k, fn := range r.gaugeFns {
		fns[k] = fn
	}
	sets := make(map[string]func() map[string]int64, len(r.gaugeSets))
	for k, fn := range r.gaugeSets {
		sets[k] = fn
	}
	for k, h := range r.hists {
		s := h.Snapshot()
		out.Hists[k] = HistJSON{
			Count:  s.Count(),
			MeanNS: s.Mean(),
			P50NS:  s.Quantile(0.50),
			P95NS:  s.Quantile(0.95),
			P99NS:  s.Quantile(0.99),
			MaxNS:  s.Max,
		}
	}
	r.mu.Unlock()
	for k, fn := range fns {
		out.Gauges[k] = fn()
	}
	for name, fn := range sets {
		for lbl, v := range fn() {
			out.Gauges[name+lbl] = v
		}
	}
	return out
}

// Handler serves the live metrics endpoint over one or more registries
// (e.g. a server registry plus a vault registry): Prometheus text by
// default, a JSON snapshot with ?format=json. Registries are rendered in
// argument order; for JSON, later registries win on (unlikely) name
// collisions.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			merged := SnapshotJSON{
				Gauges: map[string]int64{},
				Hists:  map[string]HistJSON{},
			}
			for _, r := range regs {
				s := r.Snapshot()
				for k, v := range s.Gauges {
					merged.Gauges[k] = v
				}
				for k, v := range s.Hists {
					merged.Hists[k] = v
				}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(merged)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		for _, r := range regs {
			r.WritePrometheus(w)
		}
	})
}
