package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/workload"
)

// netOptions configures the real-stack TPC-C run (v3tpcc -net): the
// wall-clock engine from internal/workload over live v3d servers,
// in-process by default or external via -servers.
type netOptions struct {
	servers    string // comma-separated external v3d addresses
	nodes      int    // in-process servers when -servers is empty
	mirror     bool   // vault RAID-1 instead of RAID-0 (multi-node)
	clients    int    // independent client engines (own session each)
	terminals  int    // terminals per client
	warehouses int    // warehouses per client
	wl         string // workload preset: tpcc|uniform|zipf|scan|bursty
	rate       float64
	warmup     time.Duration
	measure    time.Duration
	quick      bool
}

// wlPreset maps a -wl name to the engine's mix, distribution, and
// arrival process.
func wlPreset(name string, rate float64) ([]workload.TxKind, workload.DistSpec, workload.ArrivalSpec, error) {
	switch name {
	case "tpcc":
		return workload.TPCCKinds(), workload.DistSpec{Kind: workload.DistUniform}, workload.ArrivalSpec{}, nil
	case "uniform":
		return workload.SyntheticKind("uniform", 8, 2, 512), workload.DistSpec{Kind: workload.DistUniform}, workload.ArrivalSpec{}, nil
	case "zipf":
		return workload.SyntheticKind("zipf", 8, 2, 512), workload.DistSpec{Kind: workload.DistZipf}, workload.ArrivalSpec{}, nil
	case "scan":
		return workload.SyntheticKind("scan", 16, 0, 0), workload.DistSpec{Kind: workload.DistSeq}, workload.ArrivalSpec{}, nil
	case "bursty":
		if rate <= 0 {
			rate = 2000
		}
		return workload.SyntheticKind("bursty", 8, 2, 512), workload.DistSpec{Kind: workload.DistUniform},
			workload.ArrivalSpec{Kind: workload.ArrivalBursty, Rate: rate}, nil
	}
	return nil, workload.DistSpec{}, workload.ArrivalSpec{}, fmt.Errorf("unknown workload %q (tpcc|uniform|zipf|scan|bursty)", name)
}

// runNet executes the real-stack run and prints the tpmC report plus
// the per-stage latency breakdown with its accounting check.
func runNet(o netOptions) error {
	if o.quick {
		if o.warmup == 0 {
			o.warmup = 150 * time.Millisecond
		}
		if o.measure == 0 {
			o.measure = 500 * time.Millisecond
		}
	}
	if o.warmup == 0 {
		o.warmup = time.Second
	}
	if o.measure == 0 {
		o.measure = 3 * time.Second
	}
	if o.clients <= 0 {
		o.clients = 1
	}
	if o.terminals <= 0 {
		o.terminals = 8
	}
	if o.warehouses <= 0 {
		o.warehouses = 2
	}
	kinds, dist, arrival, err := wlPreset(o.wl, o.rate)
	if err != nil {
		return err
	}

	// Size one shared volume layout: the log region plus every client's
	// warehouse slice, rounded up to the 64 KB stripe unit.
	const logSlots, pageSize = 64, 8192
	totalWH := int64(o.clients * o.warehouses)
	need := int64(logSlots)*(64<<10) + totalWH*workload.PagesPerWarehouse*pageSize
	roundUp := func(v, to int64) int64 { return (v + to - 1) / to * to }

	var addrs []string
	if o.servers != "" {
		addrs = strings.Split(o.servers, ",")
	} else {
		if o.nodes <= 0 {
			o.nodes = 1
		}
		memberSize := roundUp(need, 64<<10)
		if o.nodes > 1 && !o.mirror {
			memberSize = roundUp(need/int64(o.nodes)+(64<<10), 64<<10)
		}
		// Each server gets the judged tpcc_mirror workload's cache of 2048
		// blocks, so the run reaches the cache, destager and write-behind.
		cfg := netv3.DefaultServerConfig()
		cfg.CacheBlocks = 2048
		cluster, err := workload.StartCluster(o.nodes, memberSize, cfg)
		if err != nil {
			return err
		}
		defer cluster.Close()
		addrs = cluster.Addrs()
		fmt.Printf("in-process cluster: %d node(s), %d MB/volume\n", o.nodes, memberSize>>20)
	}

	memberSize := roundUp(need, 64<<10)
	if len(addrs) > 1 && !o.mirror {
		memberSize = roundUp(need/int64(len(addrs))+(64<<10), 64<<10)
	}

	// All clients share one stage registry and one e2e histogram, so the
	// breakdown and its accounting check cover the whole run.
	reg := obs.New()
	e2e := &obs.Hist{}

	type clientRun struct {
		res *workload.Result
		err error
	}
	runs := make([]clientRun, o.clients)
	var wg sync.WaitGroup
	for k := 0; k < o.clients; k++ {
		store, closeStore, err := workload.OpenStack(workload.StackConfig{
			Addrs:   addrs,
			Mirror:  o.mirror,
			VolSize: memberSize,
			Reg:     reg,
			E2E:     e2e,
		})
		if err != nil {
			return fmt.Errorf("client %d: %w", k, err)
		}
		defer closeStore()
		eng, err := workload.New(workload.Config{
			Store:         store,
			Kinds:         kinds,
			Dist:          dist,
			Arrival:       arrival,
			Terminals:     o.terminals,
			Warehouses:    o.warehouses,
			WarehouseBase: k * o.warehouses,
			Seed:          1 + int64(k)*997,
			E2E:           e2e,
		})
		if err != nil {
			return fmt.Errorf("client %d: %w", k, err)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res, err := eng.Run(o.warmup, o.measure)
			runs[k] = clientRun{res, err}
		}(k)
	}
	wg.Wait()

	var merged *workload.Result
	for k, r := range runs {
		if r.err != nil {
			return fmt.Errorf("client %d: %w", k, r.err)
		}
		if merged == nil {
			merged = r.res
		} else {
			merged.Merge(r.res)
		}
	}

	mode := "netv3"
	if len(addrs) > 1 {
		mode = fmt.Sprintf("vvault stripe x%d", len(addrs))
		if o.mirror {
			mode = fmt.Sprintf("vvault mirror x%d", len(addrs))
		}
	}
	fmt.Printf("workload %s over %s: %d client(s) x %d terminal(s) x %d warehouse(s)\n",
		o.wl, mode, o.clients, o.terminals, o.warehouses)
	fmt.Print(merged.Format())

	// The merged table re-tiles the client trace's opaque server interval
	// into the server's own span columns (sched wait, service); every row
	// is clamped at zero, so the total tiles and the accounting check
	// below holds.
	rows := obs.Breakdown(reg, netv3.MergedStageDefs())
	fmt.Println("\nper-stage latency (sampled cross-tier trace):")
	fmt.Print(obs.FormatBreakdown(rows, merged.E2E.Mean()))
	if dev := workload.BreakdownDeviation(rows, merged.E2E); dev > 0.10 {
		fmt.Printf("WARNING: stage sum deviates %.1f%% from measured e2e (accounting target <= 10%%)\n", 100*dev)
	}
	return nil
}
