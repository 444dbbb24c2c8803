package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

const blockSize = 8192

// Every block the benchmark writes carries a (block, version) stamp and
// a fill derived from it, so a read is checked byte for byte against the
// last acknowledged version of that block.

func stampSeed(block uint64, version uint32) uint64 {
	x := block*0x9E3779B97F4A7C15 + uint64(version)*0xC2B2AE3D27D4EB4F + 0x165667B19E3779F9
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// fillBlock writes the stamp of (block, version) over b.
func fillBlock(b []byte, block uint64, version uint32) {
	binary.LittleEndian.PutUint64(b[0:], block)
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	s := stampSeed(block, version)
	for i := 16; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], s)
		s += 0x9E3779B97F4A7C15
	}
}

// checkBlock reports whether b is exactly the stamp of (block, version).
func checkBlock(b []byte, block uint64, version uint32) bool {
	if binary.LittleEndian.Uint64(b[0:]) != block || binary.LittleEndian.Uint64(b[8:]) != uint64(version) {
		return false
	}
	s := stampSeed(block, version)
	for i := 16; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != s {
			return false
		}
		s += 0x9E3779B97F4A7C15
	}
	return true
}

// describeBlock names what a mismatched buffer claims to hold.
func describeBlock(b []byte) string {
	return fmt.Sprintf("block %d version %d", binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]))
}

// op is one generated block request.
type op struct {
	block   uint64
	write   bool
	version uint32 // version written, or the version a read must return
}

// opGen draws uniform-random block ops over a working set from one seed.
// It never hands out a block that is still in flight, which is what lets
// the verifier demand exactly the last acknowledged version: no read
// races a write on its block.
//
// A generator is owned by one goroutine. Several generators may share
// one version table when their block sets are disjoint (stride/lane).
type opGen struct {
	rng      *rand.Rand
	writePct int
	stride   uint64 // this generator draws blocks lane, lane+stride, ...
	lane     uint64
	perLane  int64
	versions []uint32 // last version submitted per block
	unknown  []bool   // a failed write leaves the block's content undefined
	inflight []uint64 // blocks currently in flight; at most one window
}

func newOpGen(seed int64, blocks int, writePct int, versions []uint32, unknown []bool, lane, stride int) *opGen {
	return &opGen{
		rng:      rand.New(rand.NewSource(seed + int64(lane)*0x9E3779B9)),
		writePct: writePct,
		stride:   uint64(stride),
		lane:     uint64(lane),
		perLane:  int64(blocks / stride),
		versions: versions,
		unknown:  unknown,
	}
}

// next draws the next op and marks its block in flight.
func (g *opGen) next() op {
	var b uint64
	for {
		b = g.lane + g.stride*uint64(g.rng.Int63n(g.perLane))
		if !g.busy(b) {
			break
		}
	}
	g.inflight = append(g.inflight, b)
	o := op{block: b, write: g.writePct > 0 && g.rng.Intn(100) < g.writePct}
	if o.write {
		g.versions[b]++
	}
	o.version = g.versions[b]
	return o
}

func (g *opGen) busy(b uint64) bool {
	for _, x := range g.inflight {
		if x == b {
			return true
		}
	}
	return false
}

// done releases o's block. A write that failed leaves the block in an
// undefined state: later reads of it are not checked against a version.
func (g *opGen) done(o op, failed bool) {
	for i, x := range g.inflight {
		if x == o.block {
			g.inflight[i] = g.inflight[len(g.inflight)-1]
			g.inflight = g.inflight[:len(g.inflight)-1]
			break
		}
	}
	if o.write && failed {
		g.unknown[o.block] = true
	}
}

// verifyVolume checks every block of a quiesced volume against the last
// acknowledged version, reading through readAt, and returns the number
// of blocks that do not match with a description of the first.
func verifyVolume(readAt func(b []byte, off int64) error, versions []uint32, unknown []bool) (bad int, first string) {
	buf := make([]byte, blockSize)
	for b := range versions {
		if unknown[b] {
			continue
		}
		err := readAt(buf, int64(b)*blockSize)
		if err == nil && checkBlock(buf, uint64(b), versions[b]) {
			continue
		}
		if bad == 0 {
			if err != nil {
				first = fmt.Sprintf("block %d: %v", b, err)
			} else {
				first = fmt.Sprintf("block %d: want version %d, found %s", b, versions[b], describeBlock(buf))
			}
		}
		bad++
	}
	return bad, first
}
