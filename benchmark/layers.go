package main

import (
	"math"
	"time"

	"github.com/v3storage/v3/internal/netv3"
)

// metricDef is one metric as BENCHMARK.json declares it. A test keeps the
// two lists and the file identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the stack would see, measured in
// the untraced window. Every one is reported on every workload: "op" is
// a block request on the three I/O workloads and a committed transaction
// on tpcc_mirror, and read latency on tpcc_mirror is taken at the
// engine's PageStore boundary. Failures are the result line's
// failed/attempted, not a metric (a metric may never read 0).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "read_p50_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the single-layer metrics of the traced run, prefixed with
// the module they belong to. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "proc.cpu_user_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_sys_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.syscr_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.syscw_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.ctxsw_vol_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.ctxsw_invol_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_us_per_s", Unit: "us/s", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.heap_live_mb", Unit: "MB", Better: "lower"},

	{Name: "wire.srv_read_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.srv_write_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.payload_share", Unit: "ratio", Better: "higher"},
	{Name: "wire.unit_codec_ns", Unit: "ns", Better: "lower"},

	{Name: "client.submit_us", Unit: "us", Better: "lower"},
	{Name: "client.wire_write_us", Unit: "us", Better: "lower"},
	{Name: "client.net_kernel_us", Unit: "us", Better: "lower"},
	{Name: "client.delivery_us", Unit: "us", Better: "lower"},
	{Name: "client.wakeup_us", Unit: "us", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.reconnects", Unit: "count", Better: "lower"},
	{Name: "client.cancels", Unit: "count", Better: "lower"},
	{Name: "client.flush_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "sched.wait_us", Unit: "us", Better: "lower"},
	{Name: "sched.srv_cpu_us", Unit: "us", Better: "lower"},
	{Name: "sched.fg_done", Unit: "count", Better: "higher"},
	{Name: "sched.bg_done", Unit: "count", Better: "lower"},
	{Name: "sched.shed", Unit: "count", Better: "lower"},
	{Name: "sched.stride_fires", Unit: "count", Better: "lower"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.misses_per_op", Unit: "count", Better: "lower"},
	{Name: "mqcache.unit_ref_ns", Unit: "ns", Better: "lower"},
	{Name: "bufpool.alloc_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bufpool.unit_getput_ns", Unit: "ns", Better: "lower"},

	{Name: "destage.runs", Unit: "count", Better: "lower"},
	{Name: "destage.blocks_per_run", Unit: "count", Better: "higher"},
	{Name: "destage.writethrough_fallbacks", Unit: "count", Better: "lower"},
	{Name: "destage.dirty_blocks_end", Unit: "count", Better: "lower"},
	{Name: "destage.orphan_blocks", Unit: "count", Better: "lower"},
	{Name: "prefetch.fills", Unit: "count", Better: "lower"},
	{Name: "prefetch.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "prefetch.dropped", Unit: "count", Better: "lower"},

	{Name: "diskq.reads", Unit: "count", Better: "higher"},
	{Name: "diskq.writes", Unit: "count", Better: "higher"},
	{Name: "diskq.batches", Unit: "count", Better: "higher"},
	{Name: "diskq.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "diskq.fallbacks", Unit: "count", Better: "lower"},
	{Name: "diskq.retries", Unit: "count", Better: "lower"},
	{Name: "diskq.wait_us", Unit: "us", Better: "lower"},
	{Name: "diskq.unit_rw_us", Unit: "us", Better: "lower"},

	{Name: "store.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "store.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "store.bytes_written_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "store.syncs", Unit: "count", Better: "lower"},
	{Name: "store.read_us", Unit: "us", Better: "lower"},
	{Name: "store.write_us", Unit: "us", Better: "lower"},
	{Name: "store.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "store.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "store.inflight_max", Unit: "count", Better: "higher"},

	{Name: "vvault.op_us", Unit: "us", Better: "lower"},
	{Name: "vvault.fanout", Unit: "count", Better: "lower"},
	{Name: "vvault.read_balance", Unit: "ratio", Better: "higher"},
	{Name: "vvault.degraded_ops", Unit: "count", Better: "lower"},
	{Name: "repl.records_per_write", Unit: "count", Better: "lower"},
	{Name: "repl.log_depth", Unit: "count", Better: "lower"},
	{Name: "repl.folded", Unit: "count", Better: "lower"},
	{Name: "repl.fallbacks", Unit: "count", Better: "lower"},
	{Name: "repl.unit_append_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "volume.unit_map_ns", Unit: "ns", Better: "lower"},

	{Name: "workload.tpmC", Unit: "1/min", Better: "higher"},
	{Name: "workload.page_io_per_s", Unit: "1/s", Better: "lower"},
	{Name: "workload.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "workload.phys_reads_per_tx", Unit: "count", Better: "lower"},
	{Name: "workload.phys_writes_per_tx", Unit: "count", Better: "lower"},
	{Name: "workload.log_flushes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "workload.tx_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.tx_read_wait_us", Unit: "us", Better: "lower"},
	{Name: "workload.tx_self_us", Unit: "us", Better: "lower"},
	{Name: "workload.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.overflows", Unit: "count", Better: "lower"},

	{Name: "lat.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "lat.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "lat.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "lat.read_pmax_us", Unit: "us", Better: "lower"},
	{Name: "lat.write_pmax_us", Unit: "us", Better: "lower"},
	{Name: "lat.read_samples", Unit: "count", Better: "higher"},
	{Name: "lat.write_samples", Unit: "count", Better: "higher"},

	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.tiling_dev_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// Histograms the traced run reads. The client's stage names come from the
// package so a renamed stage follows; the disk queue's are its own.
const (
	histDiskqWait  = "diskq_queue_wait_ns"
	histDiskqBatch = "diskq_submit_batch"
	histVaultE2E   = "benchmark_vault_call_ns" // the benchmark's own; see vaultE2E
)

// stageRows maps MergedStageDefs display names to per-layer metric names.
var stageRows = map[string]string{
	"submission":     "client.submit_us",
	"wire write":     "client.wire_write_us",
	"net+kernel":     "client.net_kernel_us",
	"delivery":       "client.delivery_us",
	"wakeup":         "client.wakeup_us",
	"srv sched wait": "sched.wait_us",
	"srv cpu":        "sched.srv_cpu_us",
}

func tracedHistNames() []string {
	names := []string{histDiskqWait, histDiskqBatch, histVaultE2E}
	for _, d := range netv3.MergedStageDefs() {
		names = append(names, d.Metric)
	}
	return names
}

// measured is one finished window with everything sampled around it.
type measured struct {
	w          *window
	e          env
	open, shut edge
	heapLiveMB float64 // traced run only
	elapsed    time.Duration
	ops        int64 // block requests, or committed transactions on tpcc_mirror
	slices     []slice
	reads      []uint32
	writes     []uint32
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is a cumulative counter's growth over the window.
func (m *measured) delta(name string) float64 {
	return m.shut.counters[name] - m.open.counters[name]
}

// layerMetrics derives every per-layer metric from the traced window.
// baselineOpsPerS is the same workload's untraced rate in this process,
// for the tracing overhead; unit is the unit-cost pass.
func layerMetrics(m *measured, baselineOpsPerS float64, unit map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	for k, v := range unit {
		out[k] = v
	}
	ops := float64(max(m.ops, 1))
	secs := m.elapsed.Seconds()
	p0, p1 := m.open.proc, m.shut.proc

	out["proc.cpu_user_us_per_op"] = float64(p1.userUS-p0.userUS) / ops
	out["proc.cpu_sys_us_per_op"] = float64(p1.sysUS-p0.sysUS) / ops
	out["proc.syscr_per_op"] = float64(p1.syscr-p0.syscr) / ops
	out["proc.syscw_per_op"] = float64(p1.syscw-p0.syscw) / ops
	out["proc.ctxsw_vol_per_op"] = float64(p1.volCtx-p0.volCtx) / ops
	out["proc.ctxsw_invol_per_op"] = float64(p1.involCtx-p0.involCtx) / ops
	out["proc.allocs_per_op"] = float64(p1.mallocs-p0.mallocs) / ops
	out["proc.alloc_bytes_per_op"] = float64(p1.allocBytes-p0.allocBytes) / ops
	out["proc.gc_pause_us_per_s"] = ratio(float64(p1.gcPauseNS-p0.gcPauseNS)/1e3, secs)
	out["proc.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	out["proc.rss_peak_mb"] = rssPeakMB()
	out["proc.heap_live_mb"] = m.heapLiveMB

	// Block requests that crossed the benchmark's boundary: the ops
	// themselves, or on tpcc_mirror the engine's page calls.
	res := m.e.txResult()
	userIOs := ops
	userWrites := float64(m.w.write.count())
	if res != nil {
		userIOs = float64(m.w.read.count() + m.w.write.count() + m.w.flush.count())
	}

	var rd, wr, in, outB float64
	var perBackendOut []float64
	for _, b := range m.e.servers() {
		if b.ln == nil {
			continue
		}
		rd += float64(b.ln.readCalls.Load())
		wr += float64(b.ln.writeCalls.Load())
		in += float64(b.ln.bytesIn.Load())
		outB += float64(b.ln.bytesOut.Load())
		perBackendOut = append(perBackendOut, float64(b.ln.bytesOut.Load()))
	}
	out["wire.srv_read_calls_per_op"] = rd / userIOs
	out["wire.srv_write_calls_per_op"] = wr / userIOs
	out["wire.bytes_per_op"] = (in + outB) / userIOs
	// Payload: every read returns a block, every write carries one per replica.
	replicas := float64(len(m.e.servers()))
	payload := blockSize * (float64(m.w.read.count()) + replicas*userWrites)
	if res != nil {
		payload = blockSize * (float64(res.PhysReads) + replicas*float64(res.PhysWrites))
	}
	out["wire.payload_share"] = min(ratio(payload, in+outB), 1)

	for _, row := range netv3.MergedStageDefs() {
		if name, ok := stageRows[row.Display]; ok {
			out[name] = m.shut.hists.meanSince(m.open.hists, row.Metric) / 1e3
		}
	}
	out["client.retries"] = m.delta("Client.Retries")
	out["client.reconnects"] = m.delta("Client.Reconnects")
	out["client.cancels"] = m.delta("Client.Cancels")
	out["client.flush_ms_p50"] = percentileUS(m.w.flush.sorted(), 50) / 1e3

	out["sched.fg_done"] = m.delta("SchedStats.FGDone")
	out["sched.bg_done"] = m.delta("SchedStats.BGDone")
	out["sched.shed"] = m.delta("SchedStats.Shed")
	out["sched.stride_fires"] = m.delta("SchedStats.StrideFires")

	hits, misses := m.delta("Cache.Hits"), m.delta("Cache.Misses")
	out["cache.hit_ratio"] = ratio(hits, hits+misses)
	out["cache.misses_per_op"] = misses / userIOs
	out["bufpool.alloc_ratio"] = ratio(m.delta("PoolStats.Allocs"), m.delta("PoolStats.Gets"))

	out["destage.runs"] = m.delta("DiskStats.DestageRuns")
	out["destage.blocks_per_run"] = ratio(m.delta("DiskStats.DestagedBlocks"), m.delta("DiskStats.DestageRuns"))
	out["destage.writethrough_fallbacks"] = m.delta("DiskStats.WriteThroughFallbacks")
	out["destage.dirty_blocks_end"] = m.shut.counters["DiskStats.DirtyBlocks"]
	out["destage.orphan_blocks"] = m.shut.counters["DiskStats.OrphanBlocks"]
	out["prefetch.fills"] = m.delta("DiskStats.PrefetchFills")
	out["prefetch.hit_ratio"] = ratio(m.delta("DiskStats.PrefetchHits"), m.delta("DiskStats.PrefetchFills"))
	out["prefetch.dropped"] = m.delta("DiskStats.PrefetchDropped")

	out["diskq.reads"] = m.delta("DiskStats.DiskQReads")
	out["diskq.writes"] = m.delta("DiskStats.DiskQWrites")
	out["diskq.batches"] = m.delta("DiskStats.DiskQBatches")
	out["diskq.ops_per_batch"] = m.shut.hists.meanSince(m.open.hists, histDiskqBatch)
	out["diskq.fallbacks"] = m.delta("DiskStats.DiskQFallbacks")
	out["diskq.retries"] = m.delta("DiskStats.DiskQRetries")
	out["diskq.wait_us"] = m.shut.hists.meanSince(m.open.hists, histDiskqWait) / 1e3

	var sr, sw, sy, sbw, srNS, swNS, syNS, arr, arrSum, infMax float64
	for _, b := range m.e.servers() {
		if s := b.shim; s != nil {
			sr += float64(s.reads.Load())
			sw += float64(s.writes.Load())
			sy += float64(s.syncs.Load())
			sbw += float64(s.bytesWritten.Load())
			srNS += float64(s.readNS.Load())
			swNS += float64(s.writeNS.Load())
			syNS += float64(s.syncNS.Load())
			arr += float64(s.arrivals.Load())
			arrSum += float64(s.inflightAtArr.Load())
			infMax = max(infMax, float64(s.inflightMax.Load()))
		}
	}
	out["store.reads_per_op"] = sr / userIOs
	out["store.writes_per_op"] = sw / userIOs
	userBytesWritten := blockSize * userWrites
	if res != nil {
		userBytesWritten = blockSize * float64(res.PhysWrites)
	}
	out["store.bytes_written_per_user_byte"] = ratio(sbw, userBytesWritten)
	out["store.syncs"] = sy
	out["store.read_us"] = ratio(srNS, sr) / 1e3
	out["store.write_us"] = ratio(swNS, sw) / 1e3
	out["store.sync_ms"] = ratio(syNS, sy) / 1e6
	out["store.busy_us_per_op"] = (srNS + swNS + syNS) / 1e3 / userIOs
	out["store.inflight_mean"] = ratio(arrSum, arr)
	out["store.inflight_max"] = infMax

	// The vault layers exist only where there are two backends.
	callMeanUS := meanOfSamplersUS(m.w.read, m.w.write)
	if len(m.e.servers()) > 1 {
		vaultOps := float64(m.w.read.count() + m.w.write.count())
		if res != nil {
			callMeanUS = meanOfSamplersUS(m.w.read, m.w.write, m.w.flush)
			vaultOps = userIOs
		}
		out["vvault.op_us"] = callMeanUS
		out["vvault.fanout"] = ratio(m.delta("Served"), vaultOps)
		if len(perBackendOut) == 2 {
			out["vvault.read_balance"] = ratio(min(perBackendOut[0], perBackendOut[1]), max(perBackendOut[0], perBackendOut[1]))
		}
		out["vvault.degraded_ops"] = m.delta("Vault.DegradedReads") + m.delta("Vault.DegradedWrites")
		out["repl.records_per_write"] = ratio(m.delta("Vault.Head"), userWrites)
		out["repl.log_depth"] = m.shut.counters["Vault.Records"]
		out["repl.folded"] = m.shut.counters["Vault.Folded"]
		out["repl.fallbacks"] = m.delta("Vault.Fallbacks")
	} else {
		for _, k := range []string{"repl.unit_append_ack_ns", "volume.unit_map_ns"} {
			out[k] = 0 // layers this workload bypasses report nothing
		}
	}

	if res != nil {
		tx := float64(max(m.ops, 1))
		var txNS float64
		for _, k := range res.Kinds {
			txNS += float64(k.Lat.Sum)
		}
		readWaitUS := float64(m.w.read.sum.Load()) / 1e3 / tx
		out["workload.tpmC"] = res.TpmC
		out["workload.page_io_per_s"] = ratio(float64(res.PhysReads+res.PhysWrites), res.Measure.Seconds())
		out["workload.pool_hit_ratio"] = res.HitRatio()
		out["workload.phys_reads_per_tx"] = float64(res.PhysReads) / tx
		out["workload.phys_writes_per_tx"] = float64(res.PhysWrites) / tx
		out["workload.log_flushes_per_s"] = ratio(float64(res.LogFlushes), res.Measure.Seconds())
		out["workload.tx_mean_ms"] = txNS / tx / 1e6
		out["workload.tx_read_wait_us"] = readWaitUS
		out["workload.tx_self_us"] = txNS/tx/1e3 - readWaitUS
		out["workload.flush_ms"] = m.w.flush.meanUS() / 1e3
		out["workload.overflows"] = float64(res.Overflows)
	}

	out["lat.read_p99_us"] = percentileUS(m.reads, 99)
	out["lat.write_p50_us"] = percentileUS(m.writes, 50)
	out["lat.write_p99_us"] = percentileUS(m.writes, 99)
	out["lat.read_pmax_us"] = percentileUS(m.reads, maxPercentile(len(m.reads)))
	out["lat.write_pmax_us"] = percentileUS(m.writes, maxPercentile(len(m.writes)))
	out["lat.read_samples"] = float64(len(m.reads))
	out["lat.write_samples"] = float64(len(m.writes))

	// Tiling: the client's stage means, summed, against a latency measured
	// independently by the caller. On a single server both describe exactly
	// the stage-traced ops. Through the vault the stage table describes
	// sub-I/Os and the caller side whole vault calls (the benchmark's own
	// on mirror_rw_8k, the VaultStore adapter's on tpcc_mirror), so a write
	// — the slower of two parallel sub-I/Os — reads above the stage sum.
	var stageSumUS float64
	for _, row := range netv3.MergedStageDefs() {
		stageSumUS += m.shut.hists.meanSince(m.open.hists, row.Metric) / 1e3
	}
	callerUS := callMeanUS
	if n := m.w.tiledN.Load(); n > 0 {
		callerUS = float64(m.w.tiledNS.Load()) / float64(n) / 1e3
	} else if v := m.shut.hists.meanSince(m.open.hists, histVaultE2E); v > 0 {
		callerUS = v / 1e3
	}
	if callerUS > 0 {
		out["trace.tiling_dev_pct"] = 100 * math.Abs(stageSumUS-callerUS) / callerUS
	}
	opsPerS := ratio(float64(m.ops), secs)
	out["trace.ops_per_s"] = opsPerS
	if baselineOpsPerS > 0 {
		out["trace.overhead_pct"] = 100 * (baselineOpsPerS - opsPerS) / baselineOpsPerS
	}
	return out
}

// meanOfSamplersUS is the exact mean over every sample of the classes.
func meanOfSamplersUS(ss ...*sampler) float64 {
	var sum, n int64
	for _, s := range ss {
		sum += s.sum.Load()
		n += s.n.Load()
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}
