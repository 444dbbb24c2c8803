package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
)

// Flight is an always-on flight recorder: sharded lock-free ring buffers
// of fixed-size trace events, sized to hold the last ~64k events so the
// moments before an incident (an admission-control shed, a tripped
// backend, a latency spike) are always capturable without a profiler
// attached. Recording is the hot path and is built accordingly: a shard
// is picked from the caller's stack address (same trick as Counter), a
// slot is claimed with one atomic add, and the event's four words are
// stored individually — no locks, no allocation, no fences beyond the
// stores themselves. A reader that races a lap of the ring can observe a
// torn event; that is acceptable for a diagnostic ring and is why slots
// carry their own timestamps rather than relying on position.
//
// A nil *Flight no-ops every method, so instrumentation stays compiled
// into hot paths at the cost of one predictable branch when recording is
// off.
type Flight struct {
	shards []flightShard
	mask   uint64 // per-shard slot mask (len-1, power of two)

	names atomic.Pointer[[]string] // kind → name, for dumps

	incidents    atomic.Int64
	lastIncident atomic.Pointer[FlightDump]
	incidentNS   atomic.Int64 // Now() of last captured incident, for rate limiting
}

// flightSlot packs one event into four consecutive uint64 words:
// kind+timestamp, trace id, and two free arguments. The kind rides the
// top byte of the timestamp word — Now() is nanoseconds since process
// start, so the low 56 bits hold ~2.3 years of uptime.
type flightSlot struct {
	kts   atomic.Uint64 // kind<<56 | ts (0 = never written)
	trace atomic.Uint64
	a     atomic.Uint64
	b     atomic.Uint64
}

type flightShard struct {
	n     atomic.Uint64 // slots ever claimed; next slot is n & mask
	_     [7]uint64     // keep claim counters on distinct cache lines
	slots []flightSlot
}

const flightTSMask = 1<<56 - 1

// incidentMinGapNS rate-limits automatic incident capture: overload sheds
// arrive in storms, and each capture is a full-ring copy.
const incidentMinGapNS = int64(1e9)

// FlightEvent is one decoded ring entry.
type FlightEvent struct {
	TS    int64  `json:"ts_ns"` // Now()-relative nanoseconds
	Kind  uint8  `json:"kind"`
	Name  string `json:"name,omitempty"`
	Trace uint64 `json:"trace,omitempty"`
	A     uint64 `json:"a"`
	B     uint64 `json:"b"`
}

// FlightDump is a captured snapshot: the decoded ring plus the capture's
// reason and time, served by FlightHandler and written on SIGQUIT.
type FlightDump struct {
	Reason   string        `json:"reason"`
	TS       int64         `json:"ts_ns"`
	Recorded uint64        `json:"recorded"` // events ever recorded
	Events   []FlightEvent `json:"events"`
}

// NewFlight returns a recorder holding about capacity events (rounded so
// each of shards rings is a power of two; both are clamped to sane
// minimums). NewFlight(0, 0) gives the default ~64k events over 8 shards
// — roughly 2 MiB.
func NewFlight(capacity, shards int) *Flight {
	if capacity <= 0 {
		capacity = 64 * 1024
	}
	if shards <= 0 {
		shards = 8
	}
	per := 1
	for per < capacity/shards {
		per <<= 1
	}
	f := &Flight{shards: make([]flightShard, shards), mask: uint64(per - 1)}
	for i := range f.shards {
		f.shards[i].slots = make([]flightSlot, per)
	}
	return f
}

// SetKindNames installs the kind → name table used when rendering dumps.
// The caller that defines the kind space (netv3) owns the table.
func (f *Flight) SetKindNames(names []string) {
	if f == nil {
		return
	}
	f.names.Store(&names)
}

// Record appends one event. No-op on a nil receiver. Safe for any number
// of concurrent callers.
func (f *Flight) Record(kind uint8, trace, a, b uint64) {
	if f == nil {
		return
	}
	sh := &f.shards[shardIdx()%len(f.shards)]
	s := &sh.slots[(sh.n.Add(1)-1)&f.mask]
	s.trace.Store(trace)
	s.a.Store(a)
	s.b.Store(b)
	s.kts.Store(uint64(kind)<<56 | uint64(Now())&flightTSMask)
}

// Recorded returns the number of events ever recorded (not just retained).
func (f *Flight) Recorded() uint64 {
	if f == nil {
		return 0
	}
	var t uint64
	for i := range f.shards {
		t += f.shards[i].n.Load()
	}
	return t
}

// Snapshot decodes the ring: every written slot across all shards, sorted
// by timestamp. The copy races ongoing recording by design; events being
// overwritten during the copy may come out torn.
func (f *Flight) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	var names []string
	if p := f.names.Load(); p != nil {
		names = *p
	}
	var evs []FlightEvent
	for i := range f.shards {
		sh := &f.shards[i]
		for j := uint64(0); j < uint64(len(sh.slots)); j++ {
			kts := sh.slots[j].kts.Load()
			if kts == 0 {
				continue
			}
			e := FlightEvent{
				TS:    int64(kts & flightTSMask),
				Kind:  uint8(kts >> 56),
				Trace: sh.slots[j].trace.Load(),
				A:     sh.slots[j].a.Load(),
				B:     sh.slots[j].b.Load(),
			}
			if int(e.Kind) < len(names) {
				e.Name = names[e.Kind]
			}
			evs = append(evs, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// Incident captures the current ring into the recorder's last-incident
// slot — the automatic dump taken when the system detects trouble
// (ErrOverloaded shed, backend trip). Captures are rate-limited to one
// per second so shed storms cost one ring copy, not thousands. No-op on
// a nil receiver.
func (f *Flight) Incident(reason string) {
	if f == nil {
		return
	}
	f.incidents.Add(1)
	now := Now()
	last := f.incidentNS.Load()
	// last == 0 means no capture yet: the first incident always captures,
	// even within a second of process start (Now is process-relative).
	if (last != 0 && now-last < incidentMinGapNS) || !f.incidentNS.CompareAndSwap(last, now) {
		return
	}
	f.lastIncident.Store(&FlightDump{
		Reason:   reason,
		TS:       now,
		Recorded: f.Recorded(),
		Events:   f.Snapshot(),
	})
}

// Incidents returns the number of Incident calls (captured or
// rate-limited).
func (f *Flight) Incidents() int64 { return f.incidents.Load() }

// LastIncident returns the most recent captured incident dump, or nil.
func (f *Flight) LastIncident() *FlightDump {
	if f == nil {
		return nil
	}
	return f.lastIncident.Load()
}

// Dump captures the ring right now under the given reason, without
// touching the incident slot — the on-demand path (HTTP, SIGQUIT).
func (f *Flight) Dump(reason string) *FlightDump {
	if f == nil {
		return nil
	}
	return &FlightDump{Reason: reason, TS: Now(), Recorded: f.Recorded(), Events: f.Snapshot()}
}

// WriteText renders a dump as a human-oriented table (the SIGQUIT form).
func (d *FlightDump) WriteText(w io.Writer) {
	if d == nil {
		fmt.Fprintln(w, "flightrec: no events")
		return
	}
	fmt.Fprintf(w, "flightrec dump reason=%q ts=%dns recorded=%d retained=%d\n",
		d.Reason, d.TS, d.Recorded, len(d.Events))
	for _, e := range d.Events {
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("kind%d", e.Kind)
		}
		fmt.Fprintf(w, "%14d %-16s trace=%016x a=%d b=%d\n", e.TS, name, e.Trace, e.A, e.B)
	}
}

// FlightHandler serves the recorder on the metrics mux: a JSON dump of
// the live ring (plus the last auto-captured incident) by default, the
// text table with ?format=text, and only the last incident with
// ?incident=1. Safe on a nil recorder (404s).
func FlightHandler(f *Flight) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if f == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("incident") == "1" {
			d := f.LastIncident()
			if d == nil {
				http.Error(w, "no incident captured", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(d)
			return
		}
		d := f.Dump("http")
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain")
			d.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			*FlightDump
			Incidents    int64       `json:"incidents"`
			LastIncident *FlightDump `json:"last_incident,omitempty"`
		}{d, f.Incidents(), f.LastIncident()})
	})
}
