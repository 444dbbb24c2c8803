package reliable

import (
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestTrackerAck(t *testing.T) {
	tr := NewTracker(ms(10), 3)
	tr.Track(1, 0)
	tr.Track(2, 0)
	if tr.Pending() != 2 {
		t.Fatalf("pending=%d", tr.Pending())
	}
	tr.Ack(1)
	if tr.Pending() != 1 {
		t.Fatalf("pending=%d", tr.Pending())
	}
	tr.Ack(1) // duplicate ack ignored
	tr.Ack(99)
	if tr.Pending() != 1 {
		t.Fatalf("pending=%d", tr.Pending())
	}
}

func TestTrackerAckThrough(t *testing.T) {
	tr := NewTracker(ms(10), 3)
	for s := uint64(1); s <= 5; s++ {
		tr.Track(s, 0)
	}
	tr.AckThrough(3)
	if tr.Pending() != 2 {
		t.Fatalf("pending=%d, want 2", tr.Pending())
	}
	got := tr.Unacked()
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("unacked=%v", got)
	}
}

func TestTrackerExpireRetriesWithBackoff(t *testing.T) {
	tr := NewTracker(ms(10), 4)
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
	if tr.Retransmits() != 2 {
		t.Fatalf("retransmits=%d", tr.Retransmits())
	}
}

func TestTrackerExhaustsRetries(t *testing.T) {
	tr := NewTracker(ms(10), 2)
	tr.Track(1, 0)
	retry, failed := tr.Expire(ms(10)) // retry 1
	if len(retry) != 1 || len(failed) != 0 {
		t.Fatalf("retry=%v failed=%v", retry, failed)
	}
	retry, failed = tr.Expire(ms(1000)) // retries exhausted
	if len(retry) != 0 || len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("retry=%v failed=%v", retry, failed)
	}
	if tr.Pending() != 0 {
		t.Fatal("failed message still pending")
	}
	if tr.Failures() != 1 {
		t.Fatalf("failures=%d", tr.Failures())
	}
}

func TestTrackerNextDeadline(t *testing.T) {
	tr := NewTracker(ms(10), 3)
	if _, ok := tr.NextDeadline(); ok {
		t.Fatal("deadline on empty tracker")
	}
	tr.Track(1, ms(0))
	tr.Track(2, ms(5))
	d, ok := tr.NextDeadline()
	if !ok || d != ms(10) {
		t.Fatalf("deadline=%v ok=%v", d, ok)
	}
}

func TestTrackerResetRearms(t *testing.T) {
	tr := NewTracker(ms(10), 2)
	tr.Track(1, 0)
	tr.Expire(ms(10))
	tr.Reset(ms(100))
	// Retry budget restored: two expiries allowed again before failure.
	retry, failed := tr.Expire(ms(110))
	if len(retry) != 1 || len(failed) != 0 {
		t.Fatalf("after reset: retry=%v failed=%v", retry, failed)
	}
}

func TestUnackedSorted(t *testing.T) {
	tr := NewTracker(ms(10), 3)
	for _, s := range []uint64{9, 3, 7, 1} {
		tr.Track(s, 0)
	}
	got := tr.Unacked()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
}

func TestTrackerDefaults(t *testing.T) {
	tr := NewTracker(0, 0)
	tr.Track(1, 0)
	if r, _ := tr.Expire(DefaultTimeout - 1); len(r) != 0 {
		t.Fatal("default timeout not applied")
	}
	if r, _ := tr.Expire(DefaultTimeout); len(r) != 1 {
		t.Fatal("default timeout not applied")
	}
}

// Property: no message is ever lost silently — every tracked seq is
// eventually acked, retried, or reported failed; pending never goes
// negative and equals tracked - acked - failed.
func TestTrackerAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := NewTracker(ms(10), 3)
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
				if len(tracked) > 0 {
					for s := range tracked {
						if tr.Pending() > 0 {
							tr.Ack(s)
							delete(tracked, s)
							acked++
						}
						break
					}
				}
			case 2:
				_, failed := tr.Expire(now)
				for _, s := range failed {
					delete(tracked, s)
					failedN++
				}
			}
			if tr.Pending() != int(next)-acked-failedN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
