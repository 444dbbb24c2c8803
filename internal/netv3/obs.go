package netv3

import (
	"fmt"

	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// Stage metric names. A traced request leaves six client timestamps and,
// in its response, the server's span block; together they cut its
// lifetime — submit entry to waiter wake-up — into seven stages that tile
// it exactly, so the per-stage means of a workload column-sum to its
// end-to-end mean. That is how the paper's breakdown tables are laid out:
// each DSA variant's I/O decomposed into submission, transfer, server and
// completion costs that add up to the measured round trip.
const (
	// ReadAsync/WriteAsync/FlushAsync entry → request registered (credit
	// wait, handle allocation, bookkeeping under mu).
	metricSubmit = "netv3_client_stage_submit_ns"
	// Request registered → frame and payload queued for the connection's
	// frame writer — the time to ring the doorbell (queue lock, encode,
	// payload copy). No syscall: the writer goroutine issues one socket
	// write per batch, timed per batch in netv3_client_wire_write_ns.
	metricWire = "netv3_client_stage_wire_ns"
	// Frame queued → response decoded and its payload landed in the
	// caller's buffer, split three ways by the response's SrvSpan block:
	// scheduler wait, server service time (CPU plus any store call the
	// request made), and the residual — the writer's wake-up and socket
	// write, kernel, network and the inbound data transfer.
	metricSrvSched = "netv3_client_stage_srv_sched_ns"
	metricSrvCPU   = "netv3_client_stage_srv_cpu_ns"
	metricNetResid = "netv3_client_stage_net_ns"
	// Response received → completion published (pending-map removal,
	// error mapping, handle close).
	metricDeliver = "netv3_client_stage_deliver_ns"
	// Completion published → the waiter observing it (scheduler latency —
	// the paper's completion-notification cost).
	metricWake = "netv3_client_stage_wake_ns"
)

// traceSample is the stage-trace sampling interval: every traceSample-th
// request submitted on an instrumented client carries the full
// six-timestamp trace; the rest pay one counter increment. The workloads
// the breakdown table describes are homogeneous streams, so a 1-in-4
// systematic sample leaves the per-stage means unbiased while keeping
// the instrumented data path within a few hundred ns/op of the
// uninstrumented one.
const traceSample = 4

// MergedStageDefs returns the breakdown-table schema of a traced client,
// for obs.Breakdown over the registry passed in ClientConfig.Metrics.
// Every row is clamped at zero on capture, so the table tiles.
func MergedStageDefs() []obs.StageDef {
	return []obs.StageDef{
		{Display: "submission", Metric: metricSubmit},
		{Display: "wire write", Metric: metricWire},
		{Display: "srv sched wait", Metric: metricSrvSched},
		{Display: "srv cpu", Metric: metricSrvCPU},
		{Display: "net+kernel", Metric: metricNetResid},
		{Display: "delivery", Metric: metricDeliver},
		{Display: "wakeup", Metric: metricWake},
	}
}

// clientObs is a client's stage-histogram set; nil when no registry is
// configured, which gates every capture site down to one branch.
type clientObs struct {
	// The seven stages, in MergedStageDefs order.
	submit   *obs.Hist
	doorbell *obs.Hist
	srvSched *obs.Hist
	srvCPU   *obs.Hist
	netResid *obs.Hist
	deliver  *obs.Hist
	wake     *obs.Hist

	// The frame writer's per-batch pair (see wireCounters): how many
	// frames each socket write carried, and how long the write took.
	framesPerWrite *obs.Hist // netv3_client_frames_per_write
	wireWrite      *obs.Hist // netv3_client_wire_write_ns
}

// newClientObs builds the histogram set and exports c's failure-path
// counters (cancellation, bounded-wait expiry, hung-peer detection,
// keepalive pings) as gauge funcs over the atomics Stats already reads —
// one bookkeeping, as newServerObs does for the server's.
func newClientObs(r *obs.Registry, c *Client) *clientObs {
	if r == nil {
		return nil
	}
	r.GaugeFunc("netv3_client_cancels_total", c.cancels.Load)
	r.GaugeFunc("netv3_client_deadline_exceeded_total", c.waitTimeouts.Load)
	r.GaugeFunc("netv3_client_hung_peer_total", c.hungPeers.Load)
	r.GaugeFunc("netv3_client_keepalive_pings_total", c.kaPings.Load)
	return &clientObs{
		submit:   r.Hist(metricSubmit),
		doorbell: r.Hist(metricWire),
		srvSched: r.Hist(metricSrvSched),
		srvCPU:   r.Hist(metricSrvCPU),
		netResid: r.Hist(metricNetResid),
		deliver:  r.Hist(metricDeliver),
		wake:     r.Hist(metricWake),

		framesPerWrite: r.Hist("netv3_client_frames_per_write"),
		wireWrite:      r.Hist("netv3_client_wire_write_ns"),
	}
}

// recordTrace folds one completed request's timestamps into the stage
// histograms. Stages are clamped at zero so a replayed request (whose
// send-side stamps were overwritten mid-flight) cannot record a negative
// duration.
//
// sp is the server-side span block echoed in the response: the interval
// from doorbell to response (t3-t2) is tiled as sched wait + server
// service + network residual, each clamped at zero.
func (co *clientObs) recordTrace(t0, t1, t2, t3, t4, t5 int64, sp wire.SrvSpan) {
	co.submit.Observe(maxNS(t1 - t0))
	co.doorbell.Observe(maxNS(t2 - t1))
	q, svc := int64(sp.SrvQueueNS), int64(sp.SrvServiceNS)
	co.srvSched.Observe(q)
	co.srvCPU.Observe(svc)
	co.netResid.Observe(maxNS((t3 - t2) - q - svc))
	co.deliver.Observe(maxNS(t4 - t3))
	co.wake.Observe(maxNS(t5 - t4))
}

func maxNS(ns int64) int64 {
	if ns < 0 {
		return 0
	}
	return ns
}

// serverObs is a server's histogram set plus the gauge-func exports of
// its existing counters; nil when no registry is configured.
type serverObs struct {
	// dispatch is the session loop's handling time per request: decode →
	// response queued (or task enqueued) — the server half of the paper's
	// "server processing" column, timed for every sampled frame whether
	// or not the client traces it.
	dispatch *obs.Hist
	// destageRun is one background destage pass; flushDur one wire-level
	// Flush barrier; prefetchFill one read-ahead fill.
	destageRun   *obs.Hist
	flushDur     *obs.Hist
	prefetchFill *obs.Hist
	// schedFGWait/schedBGWait are a scheduler task's enqueue→pickup waits
	// per QoS lane — the direct signal for "is the foreground lane flat
	// while background saturates".
	schedFGWait *obs.Hist
	schedBGWait *obs.Hist
}

// newServerObs builds the histogram set and registers gauge funcs that
// export the server's existing atomic counters (served, sessions, cache,
// pool, disk path) without double bookkeeping — the counters the old
// v3d -stats loop logged, folded into the snapshot.
func newServerObs(r *obs.Registry, s *Server) *serverObs {
	if r == nil {
		return nil
	}
	so := &serverObs{
		dispatch:     r.Hist("netv3_srv_dispatch_ns"),
		destageRun:   r.Hist("netv3_srv_destage_run_ns"),
		flushDur:     r.Hist("netv3_srv_flush_ns"),
		prefetchFill: r.Hist("netv3_srv_prefetch_fill_ns"),
		schedFGWait:  r.Hist("netv3_srv_sched_fg_wait_ns"),
		schedBGWait:  r.Hist("netv3_srv_sched_bg_wait_ns"),
	}
	r.GaugeFunc("netv3_srv_served_total", s.Served)
	r.GaugeFunc("netv3_srv_sessions_total", s.Sessions)
	// The live session population (decremented on close, unlike the
	// _total counters) plus the scheduler exports.
	r.GaugeFunc("netv3_srv_sessions_active", s.SessionsActive)
	// Response frames and the socket writes that carried them, all
	// sessions: their ratio is the completion-batching factor.
	r.GaugeFunc("netv3_srv_frames_sent_total", s.wire.frames.Load)
	r.GaugeFunc("netv3_srv_wire_writes_total", s.wire.writes.Load)
	r.GaugeFunc("netv3_srv_sched_fg_queued", func() int64 { return int64(s.SchedStats().FGQueued) })
	r.GaugeFunc("netv3_srv_sched_bg_queued", func() int64 { return int64(s.SchedStats().BGQueued) })
	r.GaugeFunc("netv3_srv_sched_fg_done_total", func() int64 { return s.SchedStats().FGDone })
	r.GaugeFunc("netv3_srv_sched_bg_done_total", func() int64 { return s.SchedStats().BGDone })
	r.GaugeFunc("netv3_srv_sched_shed_total", func() int64 { return s.SchedStats().Shed })
	r.GaugeFunc("netv3_srv_sched_stride_fires_total", func() int64 { return s.SchedStats().StrideFires })
	r.GaugeFunc("netv3_srv_sched_fg_tenants", func() int64 { return int64(s.SchedStats().FGTenants) })
	r.GaugeFunc("netv3_srv_sched_bg_tenants", func() int64 { return int64(s.SchedStats().BGTenants) })
	// Per-tenant queue depths: the member set is whatever tenants exist
	// at scrape time (logical streams come and go), so this is a gauge
	// set, not pre-registered gauges.
	r.GaugeSet("netv3_srv_sched_tenant_queued", func() map[string]int64 {
		ts := s.SchedTenants()
		out := make(map[string]int64, len(ts))
		for _, t := range ts {
			lane := "fg"
			if t.BG {
				lane = "bg"
			}
			out[fmt.Sprintf(`{lane=%q,tenant="%d"}`, lane, t.Key)] = int64(t.Queued)
		}
		return out
	})
	r.GaugeFunc("netv3_srv_cache_hits_total", func() int64 { h, _ := s.CacheStats(); return h })
	r.GaugeFunc("netv3_srv_cache_misses_total", func() int64 { _, m := s.CacheStats(); return m })
	r.GaugeFunc("netv3_srv_pool_gets_total", func() int64 { return s.PoolStats().Gets })
	r.GaugeFunc("netv3_srv_pool_allocs_total", func() int64 { return s.PoolStats().Allocs })
	r.GaugeFunc("netv3_srv_dirty_blocks", func() int64 { return s.DiskStats().DirtyBlocks })
	r.GaugeFunc("netv3_srv_destage_runs_total", func() int64 { return s.DiskStats().DestageRuns })
	r.GaugeFunc("netv3_srv_destaged_blocks_total", func() int64 { return s.DiskStats().DestagedBlocks })
	r.GaugeFunc("netv3_srv_pressured_writes_total", func() int64 { return s.DiskStats().PressuredWrites })
	r.GaugeFunc("netv3_srv_prefetch_fills_total", func() int64 { return s.DiskStats().PrefetchFills })
	r.GaugeFunc("netv3_srv_prefetch_hits_total", func() int64 { return s.DiskStats().PrefetchHits })
	r.GaugeFunc("netv3_srv_prefetch_dropped_total", func() int64 { return s.DiskStats().PrefetchDropped })
	return so
}
