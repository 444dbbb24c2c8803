// Package reliable provides the retransmission logic DSA adds on top of
// VI (Section 2.2: "retransmission and reconnection ... are critical for
// industrial-strength systems"). Most VI implementations offer at best
// "reliable delivery" with connection teardown on any error, so DSA tracks
// every outstanding request and retries after a timeout. (Reconnection on
// the real TCP path is netv3's own: Client.recover.)
//
// The package is pure: callers pass the current time explicitly, so the
// code runs under the simulation's virtual clock.
package reliable

import (
	"sort"
	"time"
)

// Default retransmission policy.
const (
	DefaultTimeout     = 50 * time.Millisecond
	DefaultMaxRetries  = 5
	DefaultBackoffBase = 2 // timeout doubles per retry
)

// Tracker tracks unacknowledged sequence numbers and decides what to
// retransmit when. One Tracker per connection.
type Tracker struct {
	timeout    time.Duration
	maxRetries int
	pending    map[uint64]*entry
	acked      uint64 // cumulative: all seq <= acked are done
	retransmit int64
	failures   int64
}

type entry struct {
	seq      uint64
	deadline time.Duration // absolute virtual/wall time
	retries  int
}

// NewTracker returns a tracker with the given per-try timeout and retry
// budget. Zero values select the defaults.
func NewTracker(timeout time.Duration, maxRetries int) *Tracker {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	return &Tracker{timeout: timeout, maxRetries: maxRetries, pending: make(map[uint64]*entry)}
}

// Track records that seq was sent at time now.
func (t *Tracker) Track(seq uint64, now time.Duration) {
	t.pending[seq] = &entry{seq: seq, deadline: now + t.timeout}
}

// Ack removes seq from the pending set. Duplicate or unknown acks are
// ignored (they arise naturally from retransmissions).
func (t *Tracker) Ack(seq uint64) { delete(t.pending, seq) }

// AckThrough removes every pending seq <= cum (cumulative ack).
func (t *Tracker) AckThrough(cum uint64) {
	for s := range t.pending {
		if s <= cum {
			delete(t.pending, s)
		}
	}
	if cum > t.acked {
		t.acked = cum
	}
}

// Pending returns the number of unacknowledged messages.
func (t *Tracker) Pending() int { return len(t.pending) }

// Retransmits returns the total retransmissions decided so far.
func (t *Tracker) Retransmits() int64 { return t.retransmit }

// Failures returns the number of messages that exhausted their retries.
func (t *Tracker) Failures() int64 { return t.failures }

// NextDeadline returns the earliest pending deadline and true, or false
// when nothing is pending. Callers arm their timer with it.
func (t *Tracker) NextDeadline() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, e := range t.pending {
		if !found || e.deadline < best {
			best = e.deadline
			found = true
		}
	}
	return best, found
}

// Expire returns, in ascending seq order, the sequence numbers whose
// deadline has passed at now and which still have retries left; each is
// rescheduled with exponential backoff. Sequence numbers that exhausted
// their budget are returned in failed and dropped from the tracker — the
// connection must be declared broken and go through reconnection.
func (t *Tracker) Expire(now time.Duration) (retry, failed []uint64) {
	for _, e := range t.pending {
		if e.deadline > now {
			continue
		}
		e.retries++
		if e.retries >= t.maxRetries {
			failed = append(failed, e.seq)
			continue
		}
		t.retransmit++
		backoff := t.timeout
		for i := 0; i < e.retries; i++ {
			backoff *= DefaultBackoffBase
		}
		e.deadline = now + backoff
		retry = append(retry, e.seq)
	}
	for _, s := range failed {
		t.failures++
		delete(t.pending, s)
	}
	sortU64(retry)
	sortU64(failed)
	return retry, failed
}

// Unacked returns all pending sequence numbers in ascending order; used
// to replay after a reconnect.
func (t *Tracker) Unacked() []uint64 {
	out := make([]uint64, 0, len(t.pending))
	for s := range t.pending {
		out = append(out, s)
	}
	sortU64(out)
	return out
}

// Reset rearms every pending message as if freshly sent at now with a
// clean retry budget (used after a successful reconnection replay).
func (t *Tracker) Reset(now time.Duration) {
	for _, e := range t.pending {
		e.retries = 0
		e.deadline = now + t.timeout
	}
}

func sortU64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
