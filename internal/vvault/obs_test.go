package vvault

import (
	"strings"
	"testing"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// TestMetricsAndDegradedTime exercises the cluster-level observability:
// probe RTTs surface in Status and the registry, and wall time spent
// with a replica masked from reads accumulates in DegradedSeconds.
func TestMetricsAndDegradedTime(t *testing.T) {
	const member = 1 << 20
	_, addrA := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	srvB, addrB := startBackend(t, netv3.NewMemStore(member), "127.0.0.1:0")
	reg := obs.New()
	cfg := testConfig(ModeMirror, member)
	cfg.Metrics = reg
	v, err := Open([]string{addrA, addrB}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Healthy phase: probes complete and record RTTs.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := v.Status()
		if st[0].LastProbeRTT > 0 && st[1].LastProbeRTT > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, st := range v.Status() {
		if st.LastProbeRTT <= 0 {
			t.Fatalf("backend %d recorded no probe RTT: %+v", i, st)
		}
	}
	if s := v.Stats(); s.DegradedSeconds != 0 {
		t.Fatalf("DegradedSeconds = %v while fully mirrored, want 0", s.DegradedSeconds)
	}

	// Kill one replica; the vault trips it and degraded time starts.
	srvB.Close()
	if err := v.Write(0, pattern(0, 1, 8192)); err != nil {
		t.Fatal(err)
	}
	waitForState(t, v, 1, "down", 5*time.Second)
	time.Sleep(50 * time.Millisecond)
	s := v.Stats()
	if s.DegradedSeconds <= 0 {
		t.Fatalf("DegradedSeconds = %v after replica loss, want > 0", s.DegradedSeconds)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"vvault_probe_rtt_ns",
		`vvault_backend_state{backend="1",addr=`,
		"vvault_backend_dirty_bytes",
		"vvault_degraded_ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	snap := reg.Snapshot()
	if h := snap.Hists["vvault_probe_rtt_ns"]; h.Count <= 0 || h.MeanNS <= 0 {
		t.Fatalf("probe RTT histogram empty: %+v", h)
	}
}
