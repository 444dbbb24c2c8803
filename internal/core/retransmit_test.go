package core

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestTrackerAck(t *testing.T) {
	tr := newTracker(ms(10), 3)
	tr.Track(1, 0)
	tr.Track(2, 0)
	if len(tr.pending) != 2 {
		t.Fatalf("pending=%d", len(tr.pending))
	}
	tr.Ack(1)
	if len(tr.pending) != 1 {
		t.Fatalf("pending=%d", len(tr.pending))
	}
	tr.Ack(1) // duplicate ack ignored
	tr.Ack(99)
	if len(tr.pending) != 1 {
		t.Fatalf("pending=%d", len(tr.pending))
	}
}

func TestTrackerExpireRetriesWithBackoff(t *testing.T) {
	tr := newTracker(ms(10), 4)
	tr.Track(7, 0)
	retry, failed := tr.Expire(ms(5))
	if len(retry) != 0 || len(failed) != 0 {
		t.Fatal("premature expiry")
	}
	retry, failed = tr.Expire(ms(10))
	if len(retry) != 1 || retry[0] != 7 || len(failed) != 0 {
		t.Fatalf("retry=%v failed=%v", retry, failed)
	}
	// Backoff doubled: deadline now 10+20=30ms.
	if r, _ := tr.Expire(ms(29)); len(r) != 0 {
		t.Fatal("backoff not applied")
	}
	if r, _ := tr.Expire(ms(30)); len(r) != 1 {
		t.Fatal("second retry missing")
	}
}

func TestTrackerExhaustsRetries(t *testing.T) {
	tr := newTracker(ms(10), 2)
	tr.Track(1, 0)
	retry, failed := tr.Expire(ms(10)) // retry 1
	if len(retry) != 1 || len(failed) != 0 {
		t.Fatalf("retry=%v failed=%v", retry, failed)
	}
	retry, failed = tr.Expire(ms(1000)) // retries exhausted
	if len(retry) != 0 || len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("retry=%v failed=%v", retry, failed)
	}
	if len(tr.pending) != 0 {
		t.Fatal("failed message still pending")
	}
}

func TestTrackerDefaults(t *testing.T) {
	tr := newTracker(0, 0)
	tr.Track(1, 0)
	if r, _ := tr.Expire(defaultRetxTimeout - 1); len(r) != 0 {
		t.Fatal("default timeout not applied")
	}
	if r, _ := tr.Expire(defaultRetxTimeout); len(r) != 1 {
		t.Fatal("default timeout not applied")
	}
}

// Property: no message is ever lost silently — every tracked seq is
// eventually acked, retried, or reported failed; pending never goes
// negative and equals tracked - acked - failed.
func TestTrackerAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := newTracker(ms(10), 3)
		now := time.Duration(0)
		tracked := map[uint64]bool{}
		acked := 0
		failedN := 0
		var next uint64
		for _, op := range ops {
			now += ms(int(op % 7))
			switch op % 3 {
			case 0:
				next++
				tr.Track(next, now)
				tracked[next] = true
			case 1:
				for s := range tracked {
					tr.Ack(s)
					delete(tracked, s)
					acked++
					break
				}
			case 2:
				_, failed := tr.Expire(now)
				for _, s := range failed {
					delete(tracked, s)
					failedN++
				}
			}
			if len(tr.pending) != int(next)-acked-failedN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
