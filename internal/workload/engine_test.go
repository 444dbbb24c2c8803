package workload

import (
	"testing"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// testVolSize comfortably holds the scaled test layout: 64 log slots
// (4 MB) + warehouses*pages*8 KB, and is a 64 KB multiple for striping.
const testVolSize = 16 << 20

func testEngineConfig(store PageStore, e2e *obs.Hist) Config {
	return Config{
		Store:             store,
		Kinds:             TPCCKinds(),
		Terminals:         4,
		Warehouses:        2,
		PagesPerWarehouse: 512,
		BufferPoolPages:   256,
		Seed:              7,
		GroupCommit:       time.Millisecond,
		E2E:               e2e,
	}
}

func checkResult(t *testing.T, r *Result) {
	t.Helper()
	t.Logf("\n%s", r.Format())
	total := int64(0)
	for _, k := range r.Kinds {
		total += k.Count
	}
	if total == 0 {
		t.Fatal("no transactions committed in the measurement window")
	}
	if r.Errors != 0 {
		t.Fatalf("%d transaction errors", r.Errors)
	}
	if r.PhysReads == 0 || r.LogFlushes == 0 {
		t.Fatalf("engine did no physical I/O: %d reads, %d log flushes", r.PhysReads, r.LogFlushes)
	}
	if r.TpmC <= 0 || r.TxPerSec <= 0 {
		t.Fatalf("bad rates: tpmC=%.1f tx/s=%.1f", r.TpmC, r.TxPerSec)
	}
}

// TestEngineNetSmoke drives the multi-terminal TPC-C engine against one
// in-process v3d server (run under -race in CI) and checks the PR-4
// accounting discipline end to end: the stage means must
// column-sum to the adapter's independently measured end-to-end mean.
func TestEngineNetSmoke(t *testing.T) {
	cl, err := StartCluster(1, testVolSize, netv3.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	reg := obs.New()
	e2e := &obs.Hist{}
	store, closeStore, err := OpenStack(StackConfig{Addrs: cl.Addrs(), VolSize: testVolSize, Reg: reg, E2E: e2e})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()

	if store.BatchLimit() < 1 {
		t.Fatalf("BatchLimit %d < 1", store.BatchLimit())
	}
	eng, err := New(testEngineConfig(store, e2e))
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run(100*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r)

	rows := obs.Breakdown(reg, netv3.MergedStageDefs())
	t.Logf("\n%s", obs.FormatBreakdown(rows, r.E2E.Mean()))
	if r.E2E.Count() == 0 {
		t.Fatal("no traced requests in the e2e histogram")
	}
	if dev := BreakdownDeviation(rows, r.E2E); dev > 0.15 {
		t.Fatalf("stage sum deviates %.1f%% from measured e2e mean (want <= 15%%)", 100*dev)
	}
}

// TestEngineVaultSmoke runs the same engine over a striped 2-backend
// vvault cluster volume.
func TestEngineVaultSmoke(t *testing.T) {
	cl, err := StartCluster(2, testVolSize, netv3.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	e2e := &obs.Hist{}
	store, closeStore, err := OpenStack(StackConfig{Addrs: cl.Addrs(), VolSize: testVolSize, E2E: e2e})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()

	// OpenStack runs the vault on its defaults, so each backend is ridden
	// over its data stream, not the session's root.
	for i, s := range store.(*VaultStore).v.Status() {
		if s.DataStream == 0 || s.StreamCredits == 0 {
			t.Fatalf("backend %d rides stream %d with %d credits after OpenStack, want an opened data stream",
				i, s.DataStream, s.StreamCredits)
		}
	}
	if got := store.Size(); got != 2*testVolSize {
		t.Fatalf("striped x2 size = %d, want %d", got, 2*testVolSize)
	}
	eng, err := New(testEngineConfig(store, e2e))
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run(100*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r)
	if r.E2E.Count() == 0 {
		t.Fatal("vault adapter recorded no e2e samples")
	}
}

// TestEngineOpenLoop smokes the Poisson arrival path: open-loop
// executors drain the arrival queue and the commit count tracks the
// offered rate, not the terminal count.
func TestEngineOpenLoop(t *testing.T) {
	cl, err := StartCluster(1, testVolSize, netv3.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	store, closeStore, err := OpenStack(StackConfig{Addrs: cl.Addrs(), VolSize: testVolSize})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()

	cfg := testEngineConfig(store, nil)
	cfg.Kinds = SyntheticKind("poisson", 4, 1, 256)
	cfg.Dist = DistSpec{Kind: DistUniform}
	cfg.Arrival = ArrivalSpec{Kind: ArrivalPoisson, Rate: 500}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run(100*time.Millisecond, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r)
	if r.Overflows != 0 {
		t.Fatalf("arrival queue overflowed %d times at a trivial rate", r.Overflows)
	}
}

// TestEngineScanSeq smokes the scan-heavy shape: sequential distribution
// shared across terminals over the vault-free single-server path.
func TestEngineScanSeq(t *testing.T) {
	cl, err := StartCluster(1, testVolSize, netv3.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	store, closeStore, err := OpenStack(StackConfig{Addrs: cl.Addrs(), VolSize: testVolSize})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()

	cfg := testEngineConfig(store, nil)
	cfg.Kinds = SyntheticKind("scan", 16, 0, 0)
	cfg.Dist = DistSpec{Kind: DistSeq}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run(50*time.Millisecond, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", r.Format())
	total := int64(0)
	for _, k := range r.Kinds {
		total += k.Count
	}
	if total == 0 || r.Errors != 0 {
		t.Fatalf("scan run: %d commits, %d errors", total, r.Errors)
	}
}

// TestEngineValidation exercises Config rejection paths.
func TestEngineValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil store must be rejected")
	}
	cl, err := StartCluster(1, 1<<20, netv3.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	store, closeStore, err := OpenStack(StackConfig{Addrs: cl.Addrs(), VolSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore()
	if _, err := New(Config{Store: store, Kinds: TPCCKinds()}); err == nil {
		t.Fatal("volume smaller than layout must be rejected")
	}
	if _, err := New(Config{Store: store, Kinds: []TxKind{{Name: "w0"}}}); err == nil {
		t.Fatal("zero-weight kind must be rejected")
	}
}
