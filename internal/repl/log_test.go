package repl

import (
	"testing"
)

func TestAddSpanMergeAndNetBytes(t *testing.T) {
	var spans []Extent
	var n int64
	spans, n = addSpan(spans, 0, 100)
	if n != 100 {
		t.Fatalf("first insert netted %d, want 100", n)
	}
	spans, n = addSpan(spans, 200, 300)
	if n != 100 || len(spans) != 2 {
		t.Fatalf("disjoint insert: net=%d spans=%v", n, spans)
	}
	// Bridges [0,100) and overlaps into [50,150): only [100,150) is new.
	spans, n = addSpan(spans, 50, 150)
	if n != 50 || len(spans) != 2 || spans[0] != (Extent{0, 150}) {
		t.Fatalf("overlap insert: net=%d spans=%v", n, spans)
	}
	// [0,150)+[150,200)+[200,300) → one run; 50 new bytes.
	spans, n = addSpan(spans, 150, 200)
	if n != 50 || len(spans) != 1 || spans[0] != (Extent{0, 300}) {
		t.Fatalf("bridge insert: net=%d spans=%v", n, spans)
	}
	// Fully covered insert nets zero.
	spans, n = addSpan(spans, 10, 20)
	if n != 0 || len(spans) != 1 {
		t.Fatalf("covered insert: net=%d spans=%v", n, spans)
	}
	// Degenerate ranges are ignored.
	if spans, n = addSpan(spans, 10, 10); n != 0 || len(spans) != 1 {
		t.Fatal("zero-length insert changed the list")
	}
	if spans, n = addSpan(spans, 10, 5); n != 0 || len(spans) != 1 {
		t.Fatal("negative-length insert changed the list")
	}
	if spanBytes(spans) != 300 {
		t.Fatalf("spanBytes=%d, want 300", spanBytes(spans))
	}
}

func TestCapSpansMergesSmallestGap(t *testing.T) {
	// Eight far-apart spans plus one close pair.
	var spans []Extent
	for i := 0; i < 8; i++ {
		spans, _ = addSpan(spans, int64(i)*1000, int64(i)*1000+10)
	}
	spans, _ = addSpan(spans, 7100, 7110) // gap of 90 to span [7000,7010)
	spans = capSpans(spans, 8)
	if len(spans) != 8 {
		t.Fatalf("cap not enforced: %v", spans)
	}
	// The close pair merged, covering its 90-byte gap.
	found := false
	for _, s := range spans {
		if s == (Extent{7000, 7110}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("smallest-gap pair not merged: %v", spans)
	}
}

func TestAppendTruncatesIntoFoldedSummary(t *testing.T) {
	l := New(1<<20, Config{MaxRecords: 4, MaxFolded: 2})
	for i := 0; i < 6; i++ {
		if seq := l.Append(int64(i)*4096, 4096); seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	st := l.Stats()
	if st.Head != 6 || st.Base != 2 || st.Records != 4 {
		t.Fatalf("stats after truncation: %+v", st)
	}
	// Records 1 and 2 folded: [0,4096) and [4096,8192) merge to one span.
	if st.Folded != 1 {
		t.Fatalf("folded spans=%d, want 1", st.Folded)
	}
}

func TestConsumerAckAdvancesCursorOutOfOrder(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	g := c.Gen()
	s1 := l.Append(0, 4096)
	s2 := l.Append(8192, 4096)
	c.Ack(s2, g)
	c.Ack(s1, g) // late completion of the earlier write must not regress
	if st := c.Stats(); st.Pos != 2 {
		t.Fatalf("pos=%d after out-of-order acks, want 2", st.Pos)
	}
	if !c.CaughtUp() {
		t.Fatal("acked consumer not caught up")
	}
	_ = s2
}

func TestStaleGenAckDiscarded(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	g := c.Gen()
	seq := l.Append(0, 4096)
	c.Reset() // trip raced the in-flight write
	c.Ack(seq, g)
	if st := c.Stats(); st.Pos != 0 {
		t.Fatalf("stale-gen ack advanced the cursor to %d", st.Pos)
	}
	// The record stays above the cursor: it is the replay debt.
	plan := c.CatchUp()
	if len(plan.Extents) != 1 || plan.Extents[0] != (Extent{0, 4096}) {
		t.Fatalf("catch-up plan=%+v, want the raced write", plan)
	}
}

// TestBarrierSnapshotFirst pins the flush discipline the old unflushed
// log violated in the resync path: a write acknowledged after the
// barrier snapshot was taken may not be covered by that flush, so the
// commit must not mark it durable — it stays above the watermark for
// the next barrier, and a trip replays it.
func TestBarrierSnapshotFirst(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	g := c.Gen()
	s1 := l.Append(0, 4096)
	c.Ack(s1, g)
	bar := c.BarrierBegin() // flush issued here...
	s2 := l.Append(8192, 4096)
	c.Ack(s2, g) // ...write acked while the flush is in flight...
	c.BarrierCommit(bar)
	st := c.Stats()
	if st.Durable != 1 {
		t.Fatalf("watermark=%d after snapshot-first barrier, want 1 (the concurrent ack must not ride it)", st.Durable)
	}
	if st.UnflushedBytes != 4096 {
		t.Fatalf("unflushed=%d bytes, want the concurrent write's 4096", st.UnflushedBytes)
	}
	// A trip now must replay exactly the uncovered write.
	c.Reset()
	plan := c.CatchUp()
	if len(plan.Extents) != 1 || plan.Extents[0] != (Extent{8192, 8192 + 4096}) {
		t.Fatalf("post-trip plan=%+v, want only the unflushed write", plan)
	}
}

func TestStaleBarrierDiscardedAfterReset(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	g := c.Gen()
	s1 := l.Append(0, 4096)
	c.Ack(s1, g)
	bar := c.BarrierBegin()
	c.Reset() // replica tripped under the in-flight flush
	c.BarrierCommit(bar)
	if st := c.Stats(); st.Durable != 0 {
		t.Fatalf("stale barrier advanced the watermark to %d", st.Durable)
	}
}

func TestResetRollsCursorToWatermark(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	g := c.Gen()
	s1 := l.Append(0, 4096)
	c.Ack(s1, g)
	bar := c.BarrierBegin()
	c.BarrierCommit(bar) // record 1 durable
	s2 := l.Append(8192, 4096)
	c.Ack(s2, g)
	c.Reset()
	st := c.Stats()
	if st.Pos != 1 || st.Durable != 1 {
		t.Fatalf("after reset pos=%d durable=%d, want 1/1", st.Pos, st.Durable)
	}
	if st.DirtyBytes != 4096 || st.DirtyRanges != 1 {
		t.Fatalf("dirty view=%d bytes/%d ranges, want exactly the unflushed write", st.DirtyBytes, st.DirtyRanges)
	}
}

func TestCatchUpCommitAndDebtGenGuard(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	c.Reset()
	l.Append(0, 4096)
	l.Append(8192, 4096)
	plan := c.CatchUp()
	if plan.Fallback {
		t.Fatal("in-window catch-up took the fallback path")
	}
	if spanBytes(plan.Extents) != 8192 {
		t.Fatalf("plan covers %d bytes, want 8192", spanBytes(plan.Extents))
	}
	// Debt lands while the replay runs: the commit must keep it.
	c.Fail(65536, 4096)
	c.CommitReplay(plan)
	if c.CaughtUp() {
		t.Fatal("debt added during replay was silently dropped")
	}
	next := c.CatchUp()
	if spanBytes(next.Extents) != 4096 || next.Extents[0] != (Extent{65536, 65536 + 4096}) {
		t.Fatalf("second pass=%+v, want just the raced debt", next)
	}
	c.CommitReplay(next)
	if !c.CaughtUp() {
		t.Fatal("consumer not caught up after replaying all debt")
	}
}

func TestStalePlanDiscardedAfterReset(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	c.Reset()
	l.Append(0, 4096)
	plan := c.CatchUp()
	c.Reset() // tripped again mid-replay
	c.CommitReplay(plan)
	if c.CaughtUp() {
		t.Fatal("stale plan committed across a reset")
	}
}

func TestCatchUpFallsBackWhenTruncatedPastCursor(t *testing.T) {
	l := New(1<<20, Config{MaxRecords: 4, MaxFolded: 8})
	c := l.Consumer("r0")
	c.Reset() // cursor pinned at 0
	for i := 0; i < 8; i++ {
		l.Append(int64(i)*4096, 4096)
	}
	plan := c.CatchUp()
	if !plan.Fallback {
		t.Fatal("catch-up from a truncated cursor did not fall back")
	}
	// Coverage must still be complete: all 8 writes.
	if spanBytes(plan.Extents) != 8*4096 {
		t.Fatalf("fallback plan covers %d bytes, want %d", spanBytes(plan.Extents), 8*4096)
	}
	if l.Stats().Fallbacks == 0 {
		t.Fatal("fallback not counted")
	}
	c.CommitReplay(plan)
	bar := c.BarrierBegin()
	c.BarrierCommit(bar)
	if !c.CaughtUp() {
		t.Fatal("not caught up after fallback replay")
	}
}

func TestFoldedSummaryDroppedOncePassedThenFullRange(t *testing.T) {
	l := New(1<<20, Config{MaxRecords: 4, MaxFolded: 8})
	c := l.Consumer("r0")
	for i := 0; i < 8; i++ {
		seq := l.Append(int64(i)*4096, 4096)
		c.Ack(seq, 0)
	}
	bar := c.BarrierBegin()
	c.BarrierCommit(bar) // watermark past base: summary droppable
	st := l.Stats()
	if st.Folded != 0 {
		t.Fatalf("folded summary kept after every cursor passed it: %+v", st)
	}
	// A subscriber resuming from before the dropped summary can only be
	// served the full volume range.
	f := l.SubscribeAt("late", 1)
	b := f.Poll(0)
	if !b.FellBack || len(b.Fallback) != 1 || b.Fallback[0] != (Extent{0, 1 << 20}) {
		t.Fatalf("pre-summary cursor got %+v, want full-range fallback", b)
	}
}

func TestCountReplayNetOfReruns(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	if n := c.CountReplay(0, 8192); n != 8192 {
		t.Fatalf("first count=%d", n)
	}
	if n := c.CountReplay(0, 8192); n != 0 {
		t.Fatalf("re-run counted %d, want 0", n)
	}
	if n := c.CountReplay(4096, 8192); n != 4096 {
		t.Fatalf("overlap counted %d, want 4096", n)
	}
	// Back in service: the next outage starts fresh accounting.
	c.Reset() // (an outage...)
	c.SetLive(true)
	c.Reset()
	if n := c.CountReplay(0, 4096); n != 4096 {
		t.Fatalf("new outage counted %d, want 4096", n)
	}
}

func TestSeedDebtBaseline(t *testing.T) {
	l := New(1<<20, Config{})
	c := l.Consumer("r0")
	c.Reset()
	c.SeedDebt(0, l.Size())
	st := c.Stats()
	if st.DirtyBytes != 1<<20 || st.DirtyRanges != 1 {
		t.Fatalf("seeded baseline view=%+v", st)
	}
	plan := c.CatchUp()
	if spanBytes(plan.Extents) != 1<<20 {
		t.Fatalf("baseline plan covers %d bytes", spanBytes(plan.Extents))
	}
}

// TestAppendWithNoFeedAllocatesNothing: in steady state — the window full,
// every append folding the oldest record into a summary that already
// covers it — an append no feed is waiting for allocates nothing; the
// wake-up channel exists only while a Feed.Wait is parked on it.
func TestAppendWithNoFeedAllocatesNothing(t *testing.T) {
	l := New(1<<20, Config{MaxRecords: 64})
	i := 0
	write := func() {
		l.Append(int64(i%32)*8192, 8192)
		i++
	}
	for n := 0; n < 1024; n++ {
		write()
	}
	if n := testing.AllocsPerRun(1000, write); n != 0 {
		t.Fatalf("Append with no feed waiting: %.0f allocations, want 0", n)
	}
}
