// Package benchjson is the repo's benchmark-ledger writer: benchmark
// TestMains collect rows and hand them here, and the file on disk
// (BENCH_netv3.json) keeps exactly one row per benchmark name across
// runs — same-name rows are replaced in place (newest wins), new names
// append. That makes every entry point — the full sweep, a targeted
// `make bench-tpcc`, a single `make bench-mux` — safe to run in any
// order without discarding the others' history. Rows whose benchmark has
// been deleted stay as recorded: the last ablation of a removed design.
package benchjson

import (
	"encoding/json"
	"os"
)

// Record is one benchmark row. The zero fields are omitted so rows only
// carry the dimensions their benchmark measures.
type Record struct {
	Name        string  `json:"name"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	MeanMicros  float64 `json:"mean_us,omitempty"`
	P99Micros   float64 `json:"p99_us,omitempty"`
	BytesPerOp  float64 `json:"alloc_bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Write merges records into the JSON array at path and rewrites it:
// existing rows whose name matches a new record are replaced in their
// original position, unmatched existing rows are kept, and genuinely new
// names append in record order. A missing or unparsable file degrades to
// writing just the new records.
func Write(path string, records []Record) error {
	if len(records) == 0 {
		return nil
	}
	// Collapse duplicate names within the batch first (last wins, in
	// first-occurrence order): `go test` invokes a parent benchmark once
	// with b.N=1 to discover its sub-benchmarks, so the counted run's row
	// arrives after a throwaway single-op row under the same name.
	fresh := make(map[string]Record, len(records))
	order := make([]string, 0, len(records))
	for _, r := range records {
		if _, ok := fresh[r.Name]; !ok {
			order = append(order, r.Name)
		}
		fresh[r.Name] = r
	}
	out := make([]Record, 0, len(order))
	if prev, err := os.ReadFile(path); err == nil {
		var old []Record
		if json.Unmarshal(prev, &old) == nil {
			for _, r := range old {
				if nr, ok := fresh[r.Name]; ok {
					out = append(out, nr)
					delete(fresh, r.Name)
				} else {
					out = append(out, r)
				}
			}
		}
	}
	for _, name := range order {
		if nr, ok := fresh[name]; ok {
			out = append(out, nr)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
