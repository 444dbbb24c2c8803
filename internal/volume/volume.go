// Package volume implements the V3 volume manager's address mapping: a
// V3 volume is a virtual disk built from one or more physical disks via
// concatenation, striping (RAID-0), or mirroring (RAID-1), possibly
// nested ("V3 volumes can span multiple V3 nodes using combinations of
// RAID, such as concatenation and other disk organizations").
//
// The package is pure address arithmetic: a Layout maps a (offset,
// length) volume extent to the member extents that serve it. I/O
// execution belongs to the disk manager.
package volume

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Extent is a contiguous byte range on a member device.
type Extent struct {
	Disk   int   // member index
	Offset int64 // byte offset on that member
	Length int   // bytes
}

// Layout maps volume addresses to member extents.
type Layout interface {
	// Size returns the volume's usable size in bytes.
	Size() int64
	// MapRead returns the extents to read for [off, off+length).
	MapRead(off int64, length int) ([]Extent, error)
	// MapWrite returns the extents to write for [off, off+length)
	// (mirroring fans a write out to every replica).
	MapWrite(off int64, length int) ([]Extent, error)
	// Members returns the number of member devices.
	Members() int
}

// ErrOutOfRange reports an access beyond the end of the volume.
var ErrOutOfRange = errors.New("volume: access out of range")

// CheckRange returns ErrOutOfRange, wrapped, unless [off, off+length) lies
// within a volume of size bytes. It is the check every Layout's mapping
// makes, for a caller that needs the check without the extents.
func CheckRange(size, off int64, length int) error {
	if off < 0 || length < 0 || off+int64(length) > size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, length, size)
	}
	return nil
}

// Concat appends member disks end to end.
type Concat struct {
	sizes  []int64
	starts []int64 // prefix sums
	total  int64
}

// NewConcat builds a concatenation of members with the given sizes.
func NewConcat(sizes ...int64) (*Concat, error) {
	if len(sizes) == 0 {
		return nil, errors.New("volume: concat needs at least one member")
	}
	c := &Concat{sizes: sizes, starts: make([]int64, len(sizes))}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("volume: member %d has size %d", i, s)
		}
		c.starts[i] = c.total
		c.total += s
	}
	return c, nil
}

// Size implements Layout.
func (c *Concat) Size() int64 { return c.total }

// Members implements Layout.
func (c *Concat) Members() int { return len(c.sizes) }

// MapRead implements Layout.
func (c *Concat) MapRead(off int64, length int) ([]Extent, error) {
	if err := CheckRange(c.total, off, length); err != nil {
		return nil, err
	}
	var out []Extent
	for length > 0 {
		// Find the member containing off (linear scan over prefix sums is
		// fine: member counts are small).
		i := 0
		for i+1 < len(c.starts) && c.starts[i+1] <= off {
			i++
		}
		within := off - c.starts[i]
		chunk := c.sizes[i] - within
		if int64(length) < chunk {
			chunk = int64(length)
		}
		out = append(out, Extent{Disk: i, Offset: within, Length: int(chunk)})
		off += chunk
		length -= int(chunk)
	}
	return out, nil
}

// MapWrite implements Layout.
func (c *Concat) MapWrite(off int64, length int) ([]Extent, error) {
	return c.MapRead(off, length)
}

// Stripe interleaves data across members in stripeSize units (RAID-0).
type Stripe struct {
	members    int
	stripeSize int64
	memberSize int64
}

// NewStripe builds a RAID-0 layout over members disks of memberSize bytes
// each, striped in stripeSize units. memberSize must be a multiple of
// stripeSize.
func NewStripe(members int, stripeSize, memberSize int64) (*Stripe, error) {
	if members <= 0 {
		return nil, errors.New("volume: stripe needs at least one member")
	}
	if stripeSize <= 0 || memberSize <= 0 || memberSize%stripeSize != 0 {
		return nil, fmt.Errorf("volume: bad stripe geometry (stripe=%d member=%d)", stripeSize, memberSize)
	}
	return &Stripe{members: members, stripeSize: stripeSize, memberSize: memberSize}, nil
}

// Size implements Layout.
func (s *Stripe) Size() int64 { return s.memberSize * int64(s.members) }

// Members implements Layout.
func (s *Stripe) Members() int { return s.members }

// MapRead implements Layout.
func (s *Stripe) MapRead(off int64, length int) ([]Extent, error) {
	if err := CheckRange(s.Size(), off, length); err != nil {
		return nil, err
	}
	var out []Extent
	for length > 0 {
		stripeNo := off / s.stripeSize
		within := off % s.stripeSize
		disk := int(stripeNo % int64(s.members))
		row := stripeNo / int64(s.members)
		chunk := s.stripeSize - within
		if int64(length) < chunk {
			chunk = int64(length)
		}
		out = append(out, Extent{
			Disk:   disk,
			Offset: row*s.stripeSize + within,
			Length: int(chunk),
		})
		off += chunk
		length -= int(chunk)
	}
	return coalesce(out), nil
}

// MapWrite implements Layout.
func (s *Stripe) MapWrite(off int64, length int) ([]Extent, error) {
	return s.MapRead(off, length)
}

// ErrNoReplica reports a mirror read with every replica masked out.
var ErrNoReplica = errors.New("volume: every mirror replica is masked")

// maxReplicas bounds a Mirror by its mask word.
const maxReplicas = 64

// homeShift is log2 of the unit a mirrored read is routed by: 8 KB, the
// block size of a V3 server's cache, so each cached block has one home
// replica and the replicas' caches partition the volume instead of each
// holding the same blocks.
const homeShift = 13

// Mirror replicates an inner layout n times (RAID-1). A read goes to the
// home replica of its first 8 KB block, the block number mod n, so the
// same block is read from the same replica on every call and each replica
// is home to an equal share of the blocks. While a home is masked its
// blocks go to the unmasked replica that wins a rendezvous hash of the
// block number, so they spread over the survivors, and they go back to it
// when it is unmasked. Writes fan out to every replica.
// Member indices are replica*inner.Members() + innerDisk.
//
// A replica may be masked (SetMask) to keep reads off it while it is
// failed or resynchronizing. Masking affects reads only: MapWrite keeps
// fanning out to every replica, masked or not, so a cluster layer can see
// exactly which extents it is *not* sending to the dead replica and record
// them in its dirty log for resync. The mask is one atomic word, so a
// Mirror is safe for concurrent mapping calls and MapRead takes no lock.
type Mirror struct {
	inner    Layout
	replicas int
	masked   atomic.Uint64 // bit r set: replica r is masked
}

// NewMirror mirrors inner across replicas copies (2 to 64).
func NewMirror(inner Layout, replicas int) (*Mirror, error) {
	if inner == nil || replicas < 2 || replicas > maxReplicas {
		return nil, fmt.Errorf("volume: mirror needs an inner layout and 2 to %d replicas", maxReplicas)
	}
	return &Mirror{inner: inner, replicas: replicas}, nil
}

// SetMask marks replica as masked (no reads go to it) or unmasked.
// Out-of-range replicas are ignored.
func (m *Mirror) SetMask(replica int, masked bool) {
	if replica < 0 || replica >= m.replicas {
		return
	}
	bit := uint64(1) << replica
	for {
		old := m.masked.Load()
		upd := old &^ bit
		if masked {
			upd = old | bit
		}
		if upd == old || m.masked.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Masked reports whether replica is currently masked.
func (m *Mirror) Masked(replica int) bool {
	if replica < 0 || replica >= m.replicas {
		return false
	}
	return m.masked.Load()&(1<<replica) != 0
}

// MaskedCount returns how many replicas are masked.
func (m *Mirror) MaskedCount() int { return bits.OnesCount64(m.masked.Load()) }

// Replicas returns the replica count.
func (m *Mirror) Replicas() int { return m.replicas }

// Size implements Layout.
func (m *Mirror) Size() int64 { return m.inner.Size() }

// Members implements Layout.
func (m *Mirror) Members() int { return m.inner.Members() * m.replicas }

// MapRead implements Layout: the home replica of the read's first 8 KB
// block among the unmasked ones serves it. With every replica masked it
// returns ErrNoReplica.
func (m *Mirror) MapRead(off int64, length int) ([]Extent, error) {
	return m.mapRead(off, length, -1)
}

// MapReadAfter is MapRead for the retry of a read replica failed has just
// failed: the first unmasked replica after it in ring order serves — failed
// itself only when no other is left. A caller that retries this way meets
// every unmasked replica once before it meets one twice.
func (m *Mirror) MapReadAfter(off int64, length int, failed int) ([]Extent, error) {
	if failed < 0 || failed >= m.replicas {
		return nil, fmt.Errorf("volume: no mirror replica %d", failed)
	}
	return m.mapRead(off, length, failed)
}

// mapRead maps a read to the home replica of off's block (after < 0) or
// to the first unmasked replica after replica after in ring order.
func (m *Mirror) mapRead(off int64, length int, after int) ([]Extent, error) {
	ext, err := m.inner.MapRead(off, length)
	if err != nil {
		return nil, err
	}
	masked := m.masked.Load()
	r := -1
	if after < 0 {
		r = m.home(uint64(off)>>homeShift, masked)
	} else {
		for i := 1; i <= m.replicas; i++ {
			if cand := (after + i) % m.replicas; masked&(1<<cand) == 0 {
				r = cand
				break
			}
		}
	}
	if r < 0 {
		return nil, ErrNoReplica
	}
	// ext is the inner layout's own fresh slice: rebase it in place.
	for i := range ext {
		ext[i].Disk += r * m.inner.Members()
	}
	return ext, nil
}

// home returns blk's home replica, blk mod replicas, or while that one is
// masked the unmasked replica with the highest rendezvous score for blk;
// -1 when every replica is masked. Homes striped by block number keep a
// sequential scan a constant-stride stream on every replica, which the
// server's read-ahead follows; hashed homes would leave each server an
// irregular subsequence it cannot read ahead. A replica's score does not
// depend on the mask, so masking one moves only the blocks it was home
// to, spread over the survivors.
func (m *Mirror) home(blk uint64, masked uint64) int {
	if r := int(blk % uint64(m.replicas)); masked&(1<<r) == 0 {
		return r
	}
	r, best := -1, uint64(0)
	for cand := 0; cand < m.replicas; cand++ {
		if masked&(1<<cand) != 0 {
			continue
		}
		if s := score(blk, cand); r < 0 || s > best {
			r, best = cand, s
		}
	}
	return r
}

// score is replica r's rendezvous score for blk: splitmix64's finalizer
// over the block number offset by a per-replica constant.
func score(blk uint64, r int) uint64 {
	x := blk + uint64(r+1)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// MapWrite implements Layout: every replica is written, including masked
// ones — the caller owns routing around a failed replica and must track
// the extents it skips (the dirty log a later resync replays).
func (m *Mirror) MapWrite(off int64, length int) ([]Extent, error) {
	ext, err := m.inner.MapWrite(off, length)
	if err != nil {
		return nil, err
	}
	out := make([]Extent, 0, len(ext)*m.replicas)
	for r := 0; r < m.replicas; r++ {
		for _, e := range ext {
			e.Disk += r * m.inner.Members()
			out = append(out, e)
		}
	}
	return out, nil
}

// coalesce merges adjacent extents that landed contiguously on the same
// disk (happens when a request spans a full stripe row).
func coalesce(ext []Extent) []Extent {
	if len(ext) < 2 {
		return ext
	}
	out := ext[:1]
	for _, e := range ext[1:] {
		last := &out[len(out)-1]
		if e.Disk == last.Disk && e.Offset == last.Offset+int64(last.Length) {
			last.Length += e.Length
			continue
		}
		out = append(out, e)
	}
	return out
}
