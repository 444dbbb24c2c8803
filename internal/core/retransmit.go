package core

import (
	"slices"
	"time"
)

// Default retransmission policy, for a tracker built with zero values.
const (
	defaultRetxTimeout = 50 * time.Millisecond
	defaultRetxRetries = 5
	retxBackoffBase    = 2 // timeout doubles per retry
)

// tracker is the retransmission bookkeeping DSA adds on top of VI
// (Section 2.2: "retransmission and reconnection ... are critical for
// industrial-strength systems"). Most VI implementations offer at best
// "reliable delivery" with connection teardown on any error, so DSA tracks
// every outstanding request and retries it after a timeout. One tracker
// per connection; callers pass the current time explicitly, so it runs
// under the simulation's virtual clock.
type tracker struct {
	timeout    time.Duration
	maxRetries int
	pending    map[uint64]*retxEntry
}

type retxEntry struct {
	seq      uint64
	deadline time.Duration // absolute virtual time
	retries  int
}

// newTracker returns a tracker with the given per-try timeout and retry
// budget. Zero values select the defaults.
func newTracker(timeout time.Duration, maxRetries int) *tracker {
	if timeout <= 0 {
		timeout = defaultRetxTimeout
	}
	if maxRetries <= 0 {
		maxRetries = defaultRetxRetries
	}
	return &tracker{timeout: timeout, maxRetries: maxRetries, pending: make(map[uint64]*retxEntry)}
}

// Track records that seq was sent at time now.
func (t *tracker) Track(seq uint64, now time.Duration) {
	t.pending[seq] = &retxEntry{seq: seq, deadline: now + t.timeout}
}

// Ack removes seq from the pending set. Duplicate or unknown acks are
// ignored (they arise naturally from retransmissions).
func (t *tracker) Ack(seq uint64) { delete(t.pending, seq) }

// Expire returns, in ascending seq order, the sequence numbers whose
// deadline has passed at now and which still have retries left; each is
// rescheduled with exponential backoff. Sequence numbers that exhausted
// their budget are returned in failed and dropped from the tracker — the
// connection must be declared broken.
func (t *tracker) Expire(now time.Duration) (retry, failed []uint64) {
	for _, e := range t.pending {
		if e.deadline > now {
			continue
		}
		e.retries++
		if e.retries >= t.maxRetries {
			failed = append(failed, e.seq)
			continue
		}
		backoff := t.timeout
		for i := 0; i < e.retries; i++ {
			backoff *= retxBackoffBase
		}
		e.deadline = now + backoff
		retry = append(retry, e.seq)
	}
	for _, s := range failed {
		delete(t.pending, s)
	}
	slices.Sort(retry)
	slices.Sort(failed)
	return retry, failed
}
