package benchjson

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func readBack(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWriteMergesByName checks the ledger contract: same-name rows are
// replaced in place keeping the newest values, unmatched rows survive,
// new names append — across any sequence of partial runs.
func TestWriteMergesByName(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	if err := Write(path, []Record{
		{Name: "a", OpsPerSec: 1},
		{Name: "b", OpsPerSec: 2},
	}); err != nil {
		t.Fatal(err)
	}
	// A later targeted run refreshes "b" and adds "c".
	if err := Write(path, []Record{
		{Name: "b", OpsPerSec: 20, P99Micros: 5},
		{Name: "c", OpsPerSec: 3},
	}); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, path)
	if len(got) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(got), got)
	}
	if got[0].Name != "a" || got[0].OpsPerSec != 1 {
		t.Fatalf("row 0 = %+v, want untouched a", got[0])
	}
	if got[1].Name != "b" || got[1].OpsPerSec != 20 || got[1].P99Micros != 5 {
		t.Fatalf("row 1 = %+v, want refreshed b in place", got[1])
	}
	if got[2].Name != "c" || got[2].OpsPerSec != 3 {
		t.Fatalf("row 2 = %+v, want appended c", got[2])
	}
}

// TestWriteCorruptFileDegrades checks an unparsable ledger is replaced
// by the fresh rows instead of failing the run or duplicating.
func TestWriteCorruptFileDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []Record{{Name: "a", OpsPerSec: 1}}); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, path)
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("got %+v, want just a", got)
	}
}

// TestWriteDuplicateNewNames keeps the newest duplicate when the name
// is NOT already in the file — the sub-benchmark discovery pass records
// a b.N=1 row before the counted run's row of the same name, and the
// counted one must win whether the name is fresh or a replacement.
func TestWriteDuplicateNewNames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, []Record{{Name: "other", OpsPerSec: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []Record{
		{Name: "new", OpsPerSec: 1}, // discovery pass
		{Name: "new", OpsPerSec: 2}, // counted run
	}); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, path)
	if len(got) != 2 {
		t.Fatalf("rows = %d, want 2: %+v", len(got), got)
	}
	if got[1].Name != "new" || got[1].OpsPerSec != 2 {
		t.Fatalf("row 1 = %+v, want the counted run's row", got[1])
	}
}

// TestWriteDuplicatesToFreshFile collapses in-batch duplicates even when
// there is no file to merge into.
func TestWriteDuplicatesToFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, []Record{
		{Name: "a", OpsPerSec: 1},
		{Name: "b", OpsPerSec: 5},
		{Name: "a", OpsPerSec: 2},
	}); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, path)
	if len(got) != 2 {
		t.Fatalf("rows = %d, want 2: %+v", len(got), got)
	}
	if got[0].Name != "a" || got[0].OpsPerSec != 2 || got[1].Name != "b" {
		t.Fatalf("got %+v, want deduped a=2 then b", got)
	}
}

// TestWriteDuplicateNamesInOneRun keeps the last of duplicate names in
// a single batch — one row per name is the file invariant.
func TestWriteDuplicateNamesInOneRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, []Record{{Name: "a", OpsPerSec: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, []Record{
		{Name: "a", OpsPerSec: 2},
		{Name: "a", OpsPerSec: 3},
	}); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, path)
	if len(got) != 1 {
		t.Fatalf("rows = %d, want 1: %+v", len(got), got)
	}
	if got[0].OpsPerSec != 3 {
		t.Fatalf("row = %+v, want the newest duplicate", got[0])
	}
}

// TestCheckedInLedgerHasUniqueNames holds the repo's own ledger to the
// one-row-per-name contract Write maintains: a hand edit or an old
// appending writer that duplicates a name makes "the row for X"
// ambiguous for every reader.
func TestCheckedInLedgerHasUniqueNames(t *testing.T) {
	rows := readBack(t, filepath.Join("..", "..", "BENCH_netv3.json"))
	if len(rows) == 0 {
		t.Fatal("BENCH_netv3.json has no rows")
	}
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		if r.Name == "" {
			t.Errorf("row without a name: %+v", r)
		}
		if seen[r.Name] {
			t.Errorf("duplicate ledger row %q", r.Name)
		}
		seen[r.Name] = true
	}
}
