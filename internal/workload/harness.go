package workload

import (
	"fmt"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/vvault"
)

// Cluster is a set of in-process v3d servers backed by RAM volumes —
// the default substrate for v3tpcc -net runs and the workload tests, so
// the whole TPC-C stack (client, wire protocol, server scheduler, store,
// and the cache and write-behind path when the config sizes a cache)
// exercises for real without external processes.
type Cluster struct {
	servers []*netv3.Server
	addrs   []string
}

// StartCluster boots n servers, each exporting volume 1 as a volSize
// RAM store, listening on loopback ephemeral ports.
func StartCluster(n int, volSize int64, cfg netv3.ServerConfig) (*Cluster, error) {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		srv := netv3.NewServer(cfg)
		srv.AddVolume(1, netv3.NewMemStore(volSize))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("workload: cluster listen: %w", err)
		}
		go srv.Serve()
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, addr.String())
	}
	return c, nil
}

// Addrs returns the servers' dial addresses.
func (c *Cluster) Addrs() []string { return c.addrs }

// Close shuts every server down.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
}

// StackConfig selects and instruments the real storage path under the
// engine.
type StackConfig struct {
	// Addrs are the v3d servers. One address opens a plain netv3
	// session; several open a vvault cluster volume.
	Addrs []string
	// Mirror selects RAID-1 over the backends (default RAID-0 striping).
	// Multi-address only.
	Mirror bool
	// VolSize is the usable bytes per backend volume. The engine sees
	// VolSize for one server or a mirror, len(Addrs)*VolSize striped.
	// Must be a multiple of 64 KB for striping.
	VolSize int64
	// Reg receives the netv3 stage trace (netv3.MergedStageDefs); nil
	// disables tracing and the per-stage breakdown.
	Reg *obs.Registry
	// E2E receives the adapter's caller-measured request round trips
	// (see NetStore/VaultStore); may be nil.
	E2E *obs.Hist
}

// OpenStack dials sc and returns the engine's PageStore plus a close
// function for the underlying session(s). Client and vault run their
// production defaults, like every other way into the stack.
func OpenStack(sc StackConfig) (PageStore, func() error, error) {
	ccfg := netv3.DefaultClientConfig()
	ccfg.Metrics = sc.Reg
	if len(sc.Addrs) == 0 {
		return nil, nil, fmt.Errorf("workload: OpenStack needs at least one address")
	}
	if len(sc.Addrs) == 1 {
		cl, err := netv3.Dial(sc.Addrs[0], ccfg)
		if err != nil {
			return nil, nil, err
		}
		return NewNetStore(cl.Stream, 1, sc.VolSize, sc.E2E), cl.Close, nil
	}
	mode := vvault.ModeStripe
	if sc.Mirror {
		mode = vvault.ModeMirror
	}
	vcfg := vvault.DefaultConfig(mode)
	vcfg.MemberSize = sc.VolSize
	vcfg.Client = ccfg
	vcfg.Metrics = sc.Reg
	v, err := vvault.Open(sc.Addrs, vcfg)
	if err != nil {
		return nil, nil, err
	}
	return NewVaultStore(v, sc.E2E), v.Close, nil
}
