package core

import (
	"testing"
	"testing/quick"
)

func TestSlotsGrantTake(t *testing.T) {
	c := newSlotCredits()
	if _, err := c.TakeNow(); err != errNoCredit {
		t.Fatalf("expected errNoCredit, got %v", err)
	}
	c.Grant(3)
	if len(c.free) != 3 || c.granted != 3 {
		t.Fatalf("free=%d granted=%d", len(c.free), c.granted)
	}
	seen := map[uint32]bool{}
	for i := 0; i < 3; i++ {
		slot, err := c.TakeNow()
		if err != nil {
			t.Fatal(err)
		}
		if seen[slot] {
			t.Fatalf("slot %d issued twice", slot)
		}
		seen[slot] = true
	}
	if len(c.free) != 0 || len(c.held) != 3 {
		t.Fatalf("free=%d held=%d", len(c.free), len(c.held))
	}
	if _, err := c.TakeNow(); err != errNoCredit {
		t.Fatalf("over-take: %v", err)
	}
}

func TestSlotsReturnCycle(t *testing.T) {
	c := newSlotCredits()
	c.Grant(2)
	a, _ := c.TakeNow()
	if err := c.ReturnSlot(a); err != nil {
		t.Fatal(err)
	}
	if len(c.free) != 2 || len(c.held) != 0 {
		t.Fatalf("free=%d held=%d", len(c.free), len(c.held))
	}
	// Returning again is an error.
	if err := c.ReturnSlot(a); err == nil {
		t.Fatal("double return accepted")
	}
	// Returning a never-taken slot is an error.
	if err := c.ReturnSlot(99); err == nil {
		t.Fatal("bogus return accepted")
	}
}

func TestSlotsGrantExtendsNumbering(t *testing.T) {
	c := newSlotCredits()
	c.Grant(2)
	c.Grant(2)
	slots := map[uint32]bool{}
	for i := 0; i < 4; i++ {
		s, err := c.TakeNow()
		if err != nil {
			t.Fatal(err)
		}
		slots[s] = true
	}
	for i := uint32(0); i < 4; i++ {
		if !slots[i] {
			t.Fatalf("slot %d never issued: %v", i, slots)
		}
	}
}

// Property: under any interleaving of takes and returns every granted slot
// is either free or held, never both and never twice — so a correct
// client can never name a server buffer slot that is already busy.
func TestSlotConservationProperty(t *testing.T) {
	f := func(ops []bool, grant uint8) bool {
		n := int(grant%32) + 1
		c := newSlotCredits()
		c.Grant(n)
		var inflight []uint32
		for _, take := range ops {
			if take {
				slot, err := c.TakeNow()
				if err != nil {
					if len(inflight) != n {
						return false // refused while a slot was free
					}
					continue
				}
				inflight = append(inflight, slot)
			} else if len(inflight) > 0 {
				if err := c.ReturnSlot(inflight[0]); err != nil {
					return false
				}
				inflight = inflight[1:]
			}
			if len(c.free)+len(c.held) != c.granted || len(c.held) != len(inflight) {
				return false
			}
			for _, s := range c.free {
				if c.held[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
