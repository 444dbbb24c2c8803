package workload

import (
	"fmt"
	"strings"
	"time"

	"github.com/v3storage/v3/internal/obs"
)

// SrvStageStat is one transaction type's server-side stage attribution:
// span totals harvested from the traced demand reads committed inside
// that type's transactions. N is the traced-request count the totals
// cover; zero when the path is untraced (old peer, no registry) or the
// adapter cannot attribute (VaultStore).
type SrvStageStat struct {
	N       int64 `json:"n"`
	SchedNS int64 `json:"sched_ns"`
	CPUNS   int64 `json:"cpu_ns"`
}

// meanOf returns a per-request mean in float ns.
func (s SrvStageStat) meanOf(total int64) float64 {
	if s.N == 0 {
		return 0
	}
	return float64(total) / float64(s.N)
}

func (s *SrvStageStat) merge(o SrvStageStat) {
	s.N += o.N
	s.SchedNS += o.SchedNS
	s.CPUNS += o.CPUNS
}

// KindStat is one transaction type's measured outcome: a commit count,
// a latency histogram, and the server-side stage attribution of its
// demand reads, all over the measurement window.
type KindStat struct {
	Name  string           `json:"name"`
	Count int64            `json:"count"`
	Lat   obs.HistSnapshot `json:"lat"`
	Srv   SrvStageStat     `json:"srv"`
}

// Result is one measurement window's report: throughput, per-type
// latency, physical I/O, buffer-pool behaviour, and the adapter's
// caller-measured end-to-end histogram that the per-stage breakdown is
// checked against.
type Result struct {
	// Measure is the measured window's wall-clock length.
	Measure time.Duration `json:"measure"`
	// Kinds is the per-transaction-type breakdown, mix order.
	Kinds []KindStat `json:"kinds"`
	// TpmC is New-Order commits per minute — the TPC-C headline — or, for
	// a single-kind synthetic mix, that kind's commits per minute.
	TpmC float64 `json:"tpmC"`
	// TxPerSec is total commits per second across all kinds.
	TxPerSec float64 `json:"tx_per_sec"`
	// PhysReads/PhysWrites/LogFlushes count physical store operations:
	// buffer-pool miss reads, dirty write-backs, and group-commit
	// slot+barrier cycles.
	PhysReads  int64 `json:"phys_reads"`
	PhysWrites int64 `json:"phys_writes"`
	LogFlushes int64 `json:"log_flushes"`
	// Refs/Hits are buffer-pool references and hits.
	Refs int64 `json:"refs"`
	Hits int64 `json:"hits"`
	// Errors counts failed transactions and background write-back errors.
	Errors int64 `json:"errors"`
	// Overflows counts open-loop arrivals dropped because the arrival
	// queue was full — nonzero means the offered rate outran the stack
	// and the latency numbers undercount the true queueing.
	Overflows int64 `json:"overflows"`
	// E2E is the adapter-level caller-measured request histogram (the
	// traced population for a NetStore, every op for a VaultStore).
	E2E obs.HistSnapshot `json:"e2e"`
}

// finish derives the aggregate fields from the per-kind histograms.
func (r *Result) finish() {
	var total int64
	for i := range r.Kinds {
		r.Kinds[i].Count = r.Kinds[i].Lat.Count()
		total += r.Kinds[i].Count
	}
	secs := r.Measure.Seconds()
	if secs <= 0 {
		return
	}
	r.TxPerSec = float64(total) / secs
	headline := total
	for _, k := range r.Kinds {
		if k.Name == "NewOrder" {
			headline = k.Count
			break
		}
	}
	r.TpmC = float64(headline) / secs * 60
}

// HitRatio is the buffer pool's hit fraction over the window.
func (r *Result) HitRatio() float64 {
	if r.Refs == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Refs)
}

// Merge folds o into r: counts add, histograms merge, rates re-derive
// over r's window. Use it to aggregate per-client results from a
// multi-client run driving the same wall-clock window.
func (r *Result) Merge(o *Result) {
	for i := range r.Kinds {
		if i < len(o.Kinds) {
			r.Kinds[i].Lat.Merge(o.Kinds[i].Lat)
			r.Kinds[i].Srv.merge(o.Kinds[i].Srv)
		}
	}
	r.PhysReads += o.PhysReads
	r.PhysWrites += o.PhysWrites
	r.LogFlushes += o.LogFlushes
	r.Refs += o.Refs
	r.Hits += o.Hits
	r.Errors += o.Errors
	r.Overflows += o.Overflows
	r.E2E.Merge(o.E2E)
	r.finish()
}

func fmtMs(ns float64) string {
	return time.Duration(int64(ns)).Round(time.Microsecond).String()
}

// Format renders the window report: throughput headline, the per-type
// latency table, and the physical-I/O line.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %v: %.0f tpmC, %.1f tx/s, pool hit %.1f%%\n",
		r.Measure.Round(time.Millisecond), r.TpmC, r.TxPerSec, 100*r.HitRatio())
	srv := false
	for _, k := range r.Kinds {
		if k.Srv.N > 0 {
			srv = true
			break
		}
	}
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s", "tx", "count", "mean", "p50", "p95", "p99")
	if srv {
		// Per-request means of the server span block, attributed to the
		// type's own traced demand reads — the paper's breakdown columns
		// carried through to the transaction mix.
		fmt.Fprintf(&b, " %10s %10s %10s", "srv.n", "srv.sched", "srv.cpu")
	}
	b.WriteByte('\n')
	for _, k := range r.Kinds {
		if k.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-12s %10d %10s %10s %10s %10s", k.Name, k.Count,
			fmtMs(k.Lat.Mean()), fmtMs(k.Lat.Quantile(0.50)),
			fmtMs(k.Lat.Quantile(0.95)), fmtMs(k.Lat.Quantile(0.99)))
		if srv {
			s := k.Srv
			fmt.Fprintf(&b, " %10d %10s %10s", s.N,
				fmtMs(s.meanOf(s.SchedNS)), fmtMs(s.meanOf(s.CPUNS)))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "phys: %d reads, %d writes, %d log flushes; %d errors",
		r.PhysReads, r.PhysWrites, r.LogFlushes, r.Errors)
	if r.Overflows > 0 {
		fmt.Fprintf(&b, "; %d arrival overflows", r.Overflows)
	}
	b.WriteByte('\n')
	return b.String()
}

// BreakdownDeviation returns the fractional deviation of the per-stage
// mean sum from the independently measured end-to-end mean —
// |sum-e2e|/e2e — the PR-4 accounting check the acceptance criteria put
// at 10%. Returns 0 when either side is empty (nothing to compare).
func BreakdownDeviation(rows []obs.BreakdownRow, e2e obs.HistSnapshot) float64 {
	sum := obs.SumMeanNS(rows)
	mean := e2e.Mean()
	if sum <= 0 || mean <= 0 {
		return 0
	}
	dev := (sum - mean) / mean
	if dev < 0 {
		dev = -dev
	}
	return dev
}
