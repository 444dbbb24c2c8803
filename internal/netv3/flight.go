package netv3

import (
	"math"

	"github.com/v3storage/v3/internal/obs"
	"github.com/v3storage/v3/internal/wire"
)

// Flight-recorder event kinds. netv3 owns the kind space: the server,
// the disk path, and the vault all record into one ring, so a dump
// interleaves tiers by timestamp — the point of the recorder is seeing
// what the scheduler, the disk path, and the replicas were doing in
// the instants before an incident.
//
// Each kind's two free words (a, b) are documented inline; trace is the
// request's wire trace id when one is flowing, else 0.
const (
	fkDispatch    uint8 = iota + 1 // request decoded; a=msg type, b=volume
	fkShed                         // admission control refused; a=tenant key, b=fg backlog
	fkDestage                      // one destage pass; a=blocks written, b=pass ns
	fkPrefetch                     // one read-ahead fill; a=offset, b=fill ns
	fkFlush                        // durability barrier served; a=volume, b=barrier ns
	fkResp                         // response built; a=status, b=service ns
	fkReplicaTrip                  // vault backend tripped to Down; a=backend index, b=consecutive errors
	fkReplicaIO                    // vault per-replica sub-I/O done; a=backend index, b=rtt ns
)

// FlightReplicaTrip and FlightReplicaIO are the vault-tier kinds,
// exported so internal/vvault can record into the same ring the server
// and disk tiers use — one timestamp-ordered history across tiers.
const (
	FlightReplicaTrip = fkReplicaTrip
	FlightReplicaIO   = fkReplicaIO
)

// flightKindNames renders dump rows; index-aligned with the constants.
var flightKindNames = []string{
	"",
	"dispatch",
	"sched-shed",
	"destage",
	"prefetch",
	"flush",
	"resp",
	"replica-trip",
	"replica-io",
}

// RegisterFlightKinds installs netv3's symbolic kind names on f so dump
// rows render as "replica-trip" rather than raw numbers. The server does
// this for rings handed to it; callers that feed a client-side ring
// (vvault without a co-resident server) call it directly. Nil-safe.
func RegisterFlightKinds(f *obs.Flight) { f.SetKindNames(flightKindNames) }

// clamp32 narrows a nanosecond interval into a SrvSpan field: negative
// (clock-replayed) intervals floor at zero, and anything past ~4.3 s
// saturates rather than wrapping.
func clamp32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// traceArr returns the arrival stamp for a request: the clock is read
// only for traced frames (trace != 0), keeping the untraced hot path
// free of it. The stamp anchors the span block — queue wait is
// arrival→handler start, service is handler start→response build.
func traceArr(trace uint64) int64 {
	if trace == 0 {
		return 0
	}
	return obs.Now()
}

// fillSpan stamps a traced response's id and the two spans every path
// shares: queue wait (arrival→start) and service time (start→now); a
// miss's store call sits inside the service span. No-op for untraced
// requests, leaving the block's zeros — the same bytes a pre-trace server
// emits.
func fillSpan(h *wire.Header, sp *wire.SrvSpan, trace uint64, arr, start int64) {
	if trace == 0 {
		return
	}
	h.Trace = trace
	sp.SrvQueueNS = clamp32(start - arr)
	sp.SrvServiceNS = clamp32(obs.Now() - start)
}
