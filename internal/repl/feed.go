package repl

// Feed is a cursor-resumable change subscription over the log, with
// catch-up-then-live semantics: a subscriber behind the kept window
// first receives the coverage it missed as extents (copy those ranges
// from the source), then precise records, then follows the live tail
// via Wait. The cursor only moves on Commit, so a consumer that applies
// a batch durably before committing can crash and resume with no lost
// updates — re-application of a batch is idempotent (extents and
// records describe ranges to copy, not deltas).
//
// A Feed is owned by one consuming goroutine: Poll, Commit, and Close
// are not meant to race each other (Wait may be interrupted via its
// stop channel).
type Feed struct {
	l      *Log
	name   string
	cursor uint64
	closed bool
}

// SubscribeAt opens a feed resuming from a committed cursor; 0 means
// from the beginning (the first batch copies the whole coverage the
// subscriber has never seen — for a fresh clone, the full volume).
func (l *Log) SubscribeAt(name string, from uint64) *Feed {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := &Feed{l: l, name: name, cursor: from}
	if f.cursor > l.head {
		f.cursor = l.head
	}
	l.feeds = append(l.feeds, f)
	return f
}

// Subscribe opens a feed from the beginning.
func (l *Log) Subscribe(name string) *Feed { return l.SubscribeAt(name, 0) }

// Batch is one Poll's worth of catch-up work. Exactly one of Records /
// Fallback is populated (both empty when the feed is caught up). Apply
// it, make it durable, then Commit(Next).
type Batch struct {
	// Records are precise writes to re-apply, in sequence order.
	Records []Record
	// Fallback is extent coverage standing in for records the log
	// truncated before this subscriber saw them: copy these ranges in
	// full from the source. FellBack marks the batch.
	Fallback []Extent
	FellBack bool
	// Next is the cursor this batch advances to; pass it to Commit.
	Next uint64
}

// Poll returns the next batch, non-blocking; limit bounds the record
// count per batch (≤ 0 means no bound). An empty batch (Next equal to
// the committed cursor) means the feed is caught up as of the call.
func (f *Feed) Poll(limit int) Batch {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	if f.cursor >= f.l.head {
		return Batch{Next: f.cursor}
	}
	if f.cursor < f.l.base {
		spans, _ := f.l.coverageRangeLocked(f.cursor, f.l.base)
		f.l.fallbacks.Add(1)
		return Batch{Fallback: spans, FellBack: true, Next: f.l.base}
	}
	lo := f.cursor - f.l.base
	hi := uint64(len(f.l.recs))
	if limit > 0 && hi-lo > uint64(limit) {
		hi = lo + uint64(limit)
	}
	return Batch{
		Records: append([]Record(nil), f.l.recs[lo:hi]...),
		Next:    f.l.base + hi,
	}
}

// Commit durably acknowledges progress through Next: the feed resumes
// from here, and the log may truncate (and drop fallback summaries)
// behind it.
func (f *Feed) Commit(next uint64) {
	f.l.mu.Lock()
	if next > f.cursor {
		f.cursor = next
	}
	if f.cursor > f.l.head {
		f.cursor = f.l.head
	}
	f.l.maybeDropFoldedLocked()
	f.l.mu.Unlock()
}

// Cursor returns the committed cursor.
func (f *Feed) Cursor() uint64 {
	f.l.mu.Lock()
	defer f.l.mu.Unlock()
	return f.cursor
}

// Wait blocks until the log holds records past the committed cursor
// (returns true) or stop is closed (returns false). A nil stop waits
// indefinitely for data.
func (f *Feed) Wait(stop <-chan struct{}) bool {
	for {
		f.l.mu.Lock()
		if f.closed {
			f.l.mu.Unlock()
			return false
		}
		if f.cursor < f.l.head {
			f.l.mu.Unlock()
			return true
		}
		if f.l.notify == nil {
			f.l.notify = make(chan struct{})
		}
		ch := f.l.notify
		f.l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return false
		}
	}
}

// Close unregisters the feed so its cursor no longer pins the log's
// fallback summaries.
func (f *Feed) Close() {
	f.l.mu.Lock()
	f.closed = true
	feeds := f.l.feeds[:0]
	for _, o := range f.l.feeds {
		if o != f {
			feeds = append(feeds, o)
		}
	}
	f.l.feeds = feeds
	f.l.maybeDropFoldedLocked()
	f.l.mu.Unlock()
}

// FeedCursors snapshots every open feed's committed cursor by name.
func (l *Log) FeedCursors() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.feeds))
	for _, f := range l.feeds {
		out[f.name] = f.cursor
	}
	return out
}
