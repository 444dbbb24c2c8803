// Package repl is the per-volume sequenced replication log: the single
// encoding of "this write is acknowledged but not yet durable
// everywhere" that the cluster layer builds its redundancy on.
//
// The paper's V3 backend acknowledges writes before destaging them
// (write-behind), so a cluster client holds three distinct debts per
// replica: writes a down replica never saw, writes a live replica acked
// but has not flushed, and writes a failed replica may have applied
// partially. Encoding those as separately mutated extent logs puts the
// lost-write bugs in the seams between them. Here they are one ordered
// log instead:
//
//   - every acknowledged volume write appends one Record with a
//     monotonically increasing Seq;
//   - each replica is a Consumer with two positions into that order: a
//     cursor (pos — every record ≤ pos is applied to the replica) and a
//     watermark (durable — every record ≤ durable is covered by a
//     successful flush barrier);
//   - a replica trip is a cursor reset: pos rolls back to the
//     watermark, because the write-behind cache between them may not
//     have survived. The records in (durable, head] ARE the replay
//     debt — no extent shuffling;
//   - catch-up is log replay from the cursor: restartable (the cursor
//     only advances when a replay pass commits) and incremental. Only
//     when the log has been truncated past the cursor does catch-up
//     fall back to the extent-merge path, replaying the folded coverage
//     summary of the truncated records;
//   - ranges owed regardless of sequence order — a failed mid-write
//     whose partial content is suspect, or a replica whose content is
//     unknown at open — are tracked per consumer as debt extents on the
//     side.
//
// Feeds are the same cursor mechanism exposed to outside subscribers:
// a Feed resumes from any committed cursor, catches up (records, or
// folded extents when truncated past) and then follows the live tail.
package repl

import (
	"sync"
	"sync/atomic"
)

// Record is one acknowledged volume write in sequence order.
type Record struct {
	Seq uint64
	Off int64
	Len int64
}

// Config bounds a Log.
type Config struct {
	// MaxRecords is how many records the log keeps before folding the
	// oldest into the extent coverage summary (default 4096).
	MaxRecords int
	// MaxFolded bounds the folded summary's span count, and the span
	// count of each consumer's debt list (default 512).
	MaxFolded int
}

// Log is one volume's replication log. All methods are safe for
// concurrent use; the log takes no locks other than its own, so callers
// may invoke it while holding their own ordering locks.
type Log struct {
	mu   sync.Mutex
	size int64
	cfg  Config

	head uint64   // seq of the newest record; 0 before the first append
	base uint64   // seq of the newest truncated record; kept records are (base, head]
	recs []Record // recs[i].Seq == base+1+uint64(i)

	// folded summarises the truncated records in (foldedSince, base] as
	// merged extents — the extent-merge fallback a cursor behind base
	// replays in place of precise records. It is dropped (and foldedSince
	// advanced to base) once every watermark and feed cursor has passed
	// base, so its precision loss never outlives the consumers that
	// needed it. A cursor behind foldedSince predates the summary and
	// can only be served the full volume range.
	folded      []Extent
	foldedSince uint64

	consumers []*Consumer
	feeds     []*Feed

	// fallbacks counts catch-up passes (consumer or feed) that could not
	// be served as precise record replay from the cursor.
	fallbacks atomic.Int64

	// notify is what Feed.Wait blocks on for catch-up-then-live
	// semantics: a waiter creates it when absent, the next append closes
	// and clears it. Nil while no feed waits, so an append nobody is
	// listening for allocates nothing.
	notify chan struct{}
}

// New creates the log for a volume of the given byte size.
func New(size int64, cfg Config) *Log {
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 4096
	}
	if cfg.MaxFolded <= 0 {
		cfg.MaxFolded = 512
	}
	return &Log{size: size, cfg: cfg}
}

// Size returns the volume size the log describes.
func (l *Log) Size() int64 { return l.size }

// Append records one acknowledged write [off, off+n) and returns its
// sequence number. Call it after the write completed on at least one
// replica — a consumer cursor may only pass a record once its replica
// really applied it, so sequence numbers are assigned at completion,
// not at issue.
func (l *Log) Append(off, n int64) uint64 {
	l.mu.Lock()
	l.head++
	seq := l.head
	l.recs = append(l.recs, Record{Seq: seq, Off: off, Len: n})
	for len(l.recs) > l.cfg.MaxRecords {
		r := l.recs[0]
		l.recs = l.recs[1:]
		l.base = r.Seq
		l.folded, _ = addSpan(l.folded, r.Off, r.Off+r.Len)
		l.folded = capSpans(l.folded, l.cfg.MaxFolded)
	}
	ch := l.notify
	l.notify = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return seq
}

// coverageRangeLocked returns merged extents covering every record with
// from < seq ≤ to, and whether precision was lost — the folded summary
// (a superset of the truncated records asked for) or the full volume
// range stood in for records no longer kept. Caller holds l.mu.
func (l *Log) coverageRangeLocked(from, to uint64) ([]Extent, bool) {
	if to > l.head {
		to = l.head
	}
	if from >= to {
		return nil, false
	}
	if from >= l.base {
		var spans []Extent
		for _, r := range l.recs[from-l.base : to-l.base] {
			spans, _ = addSpan(spans, r.Off, r.Off+r.Len)
		}
		return spans, false
	}
	if from < l.foldedSince {
		// The summary itself no longer reaches back that far: every byte
		// is suspect.
		return []Extent{{0, l.size}}, true
	}
	spans := append([]Extent(nil), l.folded...)
	for _, r := range l.recs {
		if r.Seq > to {
			break
		}
		spans, _ = addSpan(spans, r.Off, r.Off+r.Len)
	}
	return spans, true
}

// maybeDropFoldedLocked discards the folded summary once nothing can
// ever ask for it: every consumer watermark (the floor a trip can roll
// a cursor back to) and every feed cursor has passed base.
func (l *Log) maybeDropFoldedLocked() {
	if len(l.folded) == 0 && l.foldedSince == l.base {
		return
	}
	for _, c := range l.consumers {
		if c.durable < l.base {
			return
		}
	}
	for _, f := range l.feeds {
		if f.cursor < l.base {
			return
		}
	}
	l.folded = nil
	l.foldedSince = l.base
}

// LogStats is a point-in-time snapshot of the log itself.
type LogStats struct {
	// Head is the newest record's sequence number, Base the newest
	// truncated (folded-out) one; Records = Head - Base are kept.
	Head, Base uint64
	// Records and Folded are the kept-record and folded-span counts.
	Records, Folded int
	// Fallbacks counts catch-up passes served by the extent-merge or
	// full-range path instead of precise record replay.
	Fallbacks int64
}

// Stats snapshots the log.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		Head:      l.head,
		Base:      l.base,
		Records:   len(l.recs),
		Folded:    len(l.folded),
		Fallbacks: l.fallbacks.Load(),
	}
}

// Consumer is one replica's pair of positions into the log, plus its
// out-of-band debt. All state is guarded by the log's lock.
type Consumer struct {
	l    *Log
	name string

	// gen counts Resets. Acks, replay commits, and barrier commits carry
	// the gen they were begun under and are discarded on mismatch: an
	// in-flight success that raced a trip must land in the replay debt,
	// not resurrect a rolled-back cursor.
	gen uint64

	// pos: every record ≤ pos is applied to the replica (debt aside).
	// durable: every record ≤ durable is covered by a flush barrier.
	// Invariant: durable ≤ pos. A Reset rolls pos back to durable.
	pos, durable uint64

	// live is true while the replica takes writes inline (Ack advances
	// pos); false from Reset until SetLive(true) after catch-up.
	live bool

	// debt is owed regardless of cursor position: failed mid-writes
	// whose partial content is suspect, or an unknown-content baseline
	// seeded at open. debtGen guards CommitReplay's clear against debt
	// added while the replay ran.
	debt    []Extent
	debtGen uint64

	// pending is debt that a committed replay has applied to the
	// replica's write-behind cache but no flush barrier has covered yet.
	// Unlike replayed records — which the cursor rollback re-covers on a
	// trip — debt has no sequence position below the watermark, so it
	// must be held here until durable and moved back to debt by a Reset
	// in between. pendEpoch guards against a barrier that was begun
	// before the replay landed claiming to have covered it.
	pending   []Extent
	pendEpoch uint64

	// counted tracks the bytes already reported as net replay progress
	// for the current outage; cleared when the replica returns to
	// service, so an outage's stalls and requeues don't recount ranges.
	counted []Extent
}

// Consumer registers a new consumer, caught up and live as of the
// current head.
func (l *Log) Consumer(name string) *Consumer {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &Consumer{l: l, name: name, pos: l.head, durable: l.head, live: true}
	l.consumers = append(l.consumers, c)
	return c
}

// Gen returns the consumer's current generation; capture it before
// issuing a write whose Ack will be reported later.
func (c *Consumer) Gen() uint64 {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	return c.gen
}

// Ack reports that the replica applied the write recorded at seq. gen
// must be the generation captured when the write was issued; a stale
// gen means the replica tripped in between, and the record stays above
// the cursor as replay debt instead.
func (c *Consumer) Ack(seq, gen uint64) {
	c.l.mu.Lock()
	if c.live && gen == c.gen && seq > c.pos {
		c.pos = seq
	}
	c.l.mu.Unlock()
}

// Fail reports a write the replica failed mid-flight: its content over
// [off, off+n) is suspect (possibly partial), so the range is owed as
// debt no matter where the cursor sits.
func (c *Consumer) Fail(off, n int64) {
	c.l.mu.Lock()
	c.addDebtLocked(off, n)
	c.l.mu.Unlock()
}

// SeedDebt marks [off, off+n) owed — the unknown-content baseline for a
// replica that joins with no trusted state (e.g. unreachable at open,
// so the whole volume is seeded).
func (c *Consumer) SeedDebt(off, n int64) {
	c.l.mu.Lock()
	c.addDebtLocked(off, n)
	c.l.mu.Unlock()
}

func (c *Consumer) addDebtLocked(off, n int64) {
	c.debt, _ = addSpan(c.debt, off, off+n)
	c.debt = capSpans(c.debt, c.l.cfg.MaxFolded)
	c.debtGen++
}

// Reset is the trip: the replica leaves service and its cursor rolls
// back to the watermark, because the write-behind cache holding the
// records in (durable, pos] may not survive whatever tripped it. Those
// records — plus anything appended while it is away — become the replay
// debt catch-up serves from the log, and replayed-but-unflushed debt
// rolls back to owed.
func (c *Consumer) Reset() {
	c.l.mu.Lock()
	c.gen++
	c.live = false
	c.pos = c.durable
	for _, p := range c.pending {
		c.debt, _ = addSpan(c.debt, p.Off, p.End)
	}
	if len(c.pending) > 0 {
		c.debt = capSpans(c.debt, c.l.cfg.MaxFolded)
		c.pending = nil
		c.debtGen++
	}
	c.pendEpoch++
	c.l.mu.Unlock()
}

// SetLive flips the consumer's in-service flag. Turning live also
// clears the outage's net-progress accounting.
func (c *Consumer) SetLive(live bool) {
	c.l.mu.Lock()
	if live && !c.live {
		c.counted = nil
	}
	c.live = live
	c.l.mu.Unlock()
}

// Live reports whether the consumer is in service.
func (c *Consumer) Live() bool {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	return c.live
}

// Barrier is a flush barrier's snapshot, captured before the flush is
// issued: seq is the cursor as of the snapshot, so writes acked while
// the flush is in flight — which it may not cover — can never be marked
// durable by it. That is the snapshot-first discipline, by construction.
type Barrier struct {
	seq, gen, pend uint64
}

// BarrierBegin snapshots the barrier. Call before issuing the flush.
func (c *Consumer) BarrierBegin() Barrier {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	return Barrier{seq: c.pos, gen: c.gen, pend: c.pendEpoch}
}

// BarrierCommit advances the watermark to the barrier's snapshot after
// the flush succeeded. A barrier begun before a Reset is discarded: the
// flush outcome says nothing about a replica that tripped under it.
// Pending replayed debt is settled only by a barrier begun after the
// replay committed (snapshot-first, in both directions).
func (c *Consumer) BarrierCommit(b Barrier) {
	c.l.mu.Lock()
	if b.gen == c.gen {
		if b.seq > c.durable {
			c.durable = b.seq
		}
		if b.pend == c.pendEpoch {
			c.pending = nil
		}
	}
	c.l.maybeDropFoldedLocked()
	c.l.mu.Unlock()
}

// Plan is one catch-up pass: replay Extents onto the replica (sourcing
// from live copies), then CommitReplay. Fallback marks a pass that
// could not be served as precise record replay from the cursor — the
// log was truncated past it — and used the extent-merge summary (or the
// full volume range) instead.
type Plan struct {
	Gen, Target, DebtGen uint64
	Extents              []Extent
	Fallback             bool
}

// CatchUp computes the replica's current replay plan: coverage of the
// records above its cursor, merged with its debt. An empty Extents
// means there was nothing to replay as of the call.
func (c *Consumer) CatchUp() Plan {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	spans, fell := c.l.coverageRangeLocked(c.pos, c.l.head)
	if fell {
		c.l.fallbacks.Add(1)
	}
	for _, d := range c.debt {
		spans, _ = addSpan(spans, d.Off, d.End)
	}
	return Plan{Gen: c.gen, Target: c.l.head, DebtGen: c.debtGen, Extents: spans, Fallback: fell}
}

// CommitReplay advances the cursor to the plan's target after every
// extent in it was replayed, and moves the debt the plan absorbed to
// pending — it is applied, but not durable until a barrier covers it.
// A plan begun before a Reset is discarded, and debt added while the
// replay ran (DebtGen mismatch) survives for the next pass.
func (c *Consumer) CommitReplay(p Plan) {
	c.l.mu.Lock()
	if p.Gen == c.gen {
		if p.Target > c.pos {
			c.pos = p.Target
		}
		if p.DebtGen == c.debtGen && len(c.debt) > 0 {
			for _, d := range c.debt {
				c.pending, _ = addSpan(c.pending, d.Off, d.End)
			}
			c.pending = capSpans(c.pending, c.l.cfg.MaxFolded)
			c.debt = nil
			c.pendEpoch++
		}
	}
	c.l.mu.Unlock()
}

// CaughtUp reports whether the replica owes nothing: cursor at head and
// no debt. For the no-lost-write contract, call it under whatever lock
// orders writes against recovery (the cluster layer's per-replica I/O
// lock), so no write that will append a record is still in flight.
func (c *Consumer) CaughtUp() bool {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	return c.pos == c.l.head && len(c.debt) == 0
}

// CountReplay records that [off, off+n) was replayed onto the replica
// and returns how many of those bytes were NOT already replayed during
// this outage — the net progress. Replays re-run after a stall or a
// failed pass count zero the second time. (The accounting spans are
// capped like any span list, so a pathologically fragmented outage may
// undercount, never overcount.)
func (c *Consumer) CountReplay(off, n int64) int64 {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	var fresh int64
	c.counted, fresh = addSpan(c.counted, off, off+n)
	c.counted = capSpans(c.counted, c.l.cfg.MaxFolded)
	return fresh
}

// ConsumerStats is a replica's derived view of the log: the dirty and
// unflushed extent logs the cluster layer used to maintain by hand are
// projections of (pos, durable, head, debt).
type ConsumerStats struct {
	Name string
	// Pos is the cursor, Durable the flush watermark.
	Pos, Durable uint64
	Live         bool
	// Dirty is what a catch-up pass would replay right now: debt plus
	// coverage of the records above the cursor. A live replica reports
	// only debt (its cursor lag is in-flight writes, not dirt).
	DirtyRanges int
	DirtyBytes  int64
	// Unflushed is the coverage of records acked since the watermark —
	// what a crash now would cost the replica.
	UnflushedRanges int
	UnflushedBytes  int64
}

// Stats snapshots the consumer.
func (c *Consumer) Stats() ConsumerStats {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	st := ConsumerStats{Name: c.name, Pos: c.pos, Durable: c.durable, Live: c.live}
	dirty := append([]Extent(nil), c.debt...)
	if !c.live {
		spans, _ := c.l.coverageRangeLocked(c.pos, c.l.head)
		for _, s := range spans {
			dirty, _ = addSpan(dirty, s.Off, s.End)
		}
	}
	st.DirtyRanges, st.DirtyBytes = len(dirty), spanBytes(dirty)
	unf, _ := c.l.coverageRangeLocked(c.durable, c.pos)
	st.UnflushedRanges, st.UnflushedBytes = len(unf), spanBytes(unf)
	return st
}
