// OLTP example: the same TPC-C-shaped workload run two ways, side by
// side — first against the simulated V3 back-end with each DSA
// implementation and local disks (a miniature of the paper's Section 6),
// then for real: the wall-clock engine from internal/workload driving
// an in-process v3d server over the live netv3 stack, with the sampled
// per-stage latency breakdown checked against an independently measured
// end-to-end mean.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/v3storage/v3/internal/bench"
	"github.com/v3storage/v3/internal/core"
	"github.com/v3storage/v3/internal/hw"
	"github.com/v3storage/v3/internal/localio"
	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/oltp"
	"github.com/v3storage/v3/internal/oskrnl"
	"github.com/v3storage/v3/internal/sim"
	"github.com/v3storage/v3/internal/workload"
)

func main() {
	simulated()
	real()
}

// simulated is the discrete-event tier: the paper's modeled hardware,
// where a "disk" costs what the calibration constants say it costs.
func simulated() {
	setup := bench.MidSizeSetup()
	dur := bench.QuickDurations()

	fmt.Printf("== Simulated: TPC-C on the %s configuration (scaled; %v warmup + %v measured)\n\n",
		setup.Name, dur.Warmup, dur.Measure)

	local := bench.RunTPCCLocal(setup, 0, dur)
	fmt.Printf("%-6s tpmC=%8.0f (=100)  buffer-pool hit %.0f%%\n",
		"Local", local.TpmC, local.BufferHit*100)

	for _, impl := range []core.Impl{core.KDSA, core.WDSA, core.CDSA} {
		r := bench.RunTPCCDSA(setup, impl, core.AllOpts(), dur)
		fmt.Printf("%-6s tpmC=%8.0f (=%3.0f)  server cache hit %.0f%%  SQL share %.0f%%\n",
			impl, r.TpmC, r.TpmC/local.TpmC*100, r.ServerHit*100, r.Breakdown["SQL"]*100)
	}

	fmt.Println("\nThe paper's shape: all three DSA implementations competitive with")
	fmt.Println("176 local disks while using only 60 disks plus the V3 server cache.")

	// Per-transaction-type report (full-disclosure style) for a short
	// local run.
	fmt.Println("\nPer-transaction report (local, short run):")
	e := sim.NewEngine()
	cpus := hw.NewCPUPool(e, setup.HostCPUs)
	kern := oskrnl.New(e, cpus, oskrnl.DefaultParams())
	lcfg := localio.DefaultConfig()
	lcfg.DiskParams = setup.DiskParams
	lc := localio.New(e, cpus, kern, lcfg)
	ecfg := oltp.DefaultConfig()
	ecfg.Workers = setup.Workers
	en := oltp.New(e, cpus, oltp.LocalStorage{C: lc}, ecfg)
	en.Start()
	e.RunFor(dur.Warmup)
	en.BeginMeasurement()
	e.RunFor(dur.Measure)
	en.Stop()
	fmt.Print(en.Report())
}

// real is the wall-clock tier: the identical transaction mix (shared
// weights and profiles via internal/oltp), but every page read is a
// live netv3 round trip to an in-process v3d server and every commit
// waits on a real group-commit flush barrier.
func real() {
	const volSize = 64 << 20
	fmt.Println("\n== Real stack: the same mix over a live v3d server (in-process, RAM volume)")

	cluster, err := workload.StartCluster(1, volSize, netv3.DefaultServerConfig())
	if err != nil {
		log.Fatalf("oltp example: %v", err)
	}
	defer cluster.Close()

	reg := obs.New()
	e2e := &obs.Hist{}
	store, closeStore, err := workload.OpenStack(workload.StackConfig{
		Addrs: cluster.Addrs(), VolSize: volSize, Reg: reg, E2E: e2e,
	})
	if err != nil {
		log.Fatalf("oltp example: %v", err)
	}
	defer closeStore()

	eng, err := workload.New(workload.Config{
		Store:      store,
		Kinds:      workload.TPCCKinds(),
		Terminals:  8,
		Warehouses: 2,
		Seed:       1,
		E2E:        e2e,
	})
	if err != nil {
		log.Fatalf("oltp example: %v", err)
	}
	r, err := eng.Run(200*time.Millisecond, time.Second)
	if err != nil {
		log.Fatalf("oltp example: %v", err)
	}
	fmt.Print(r.Format())

	fmt.Println("\nPer-stage latency, client and server (1-in-4 sampled trace) vs measured e2e:")
	rows := obs.Breakdown(reg, netv3.MergedStageDefs())
	fmt.Print(obs.FormatBreakdown(rows, r.E2E.Mean()))
	fmt.Println("\nSame mix, same weights — but here the latencies are real wire round")
	fmt.Println("trips, and the stage means column-sum to the measured e2e mean (the")
	fmt.Println("paper's cost-accounting discipline). Scale it up: go run ./cmd/v3tpcc -net")
}
