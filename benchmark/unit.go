package main

import (
	"os"
	"time"

	"github.com/v3storage/v3/internal/bufpool"
	"github.com/v3storage/v3/internal/diskq"
	"github.com/v3storage/v3/internal/mqcache"
	"github.com/v3storage/v3/internal/repl"
	"github.com/v3storage/v3/internal/volume"
	"github.com/v3storage/v3/internal/wire"
)

// The unit-cost pass is rung L0 of the ladder: what one call of a layer's
// inner primitive costs on this box, single goroutine, fixed count. A
// layer's share of an op should be about unit cost x calls per op; where
// the traced share is much larger, the excess is contention or waiting,
// not the primitive.

// unitCosts runs the six loops and returns them by metric name. A loop
// that cannot run (no temp file) reports 0.
func unitCosts(dir string) map[string]float64 {
	return map[string]float64{
		"wire.unit_codec_ns":      perCall(unitCodec, 400_000),
		"mqcache.unit_ref_ns":     perCall(unitMQRef, 400_000),
		"bufpool.unit_getput_ns":  perCall(unitBufpool, 400_000),
		"diskq.unit_rw_us":        perCall(func(n int) { unitDiskq(dir, n) }, 10_000) / 1e3,
		"repl.unit_append_ack_ns": perCall(unitRepl, 400_000),
		"volume.unit_map_ns":      perCall(unitVolumeMap, 400_000),
	}
}

// perCall returns the nanoseconds per iteration of the fastest of three
// runs of loop(n): a unit cost is a floor, and the fastest run is the one
// least disturbed by whatever else the box was doing.
func perCall(loop func(n int), n int) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		loop(n)
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(n)
}

var unitSink uint64 // keeps loop results live

// unitCodec: marshal one Read frame and unmarshal it back.
func unitCodec(n int) {
	var frame [wire.ControlSize]byte
	m := wire.Read{Volume: 1, Length: blockSize}
	var back wire.Read
	for i := 0; i < n; i++ {
		m.ReqID = uint64(i)
		m.Offset = uint64(i) * blockSize
		wire.MarshalInto(frame[:], &m)
		if err := wire.UnmarshalInto(frame[:], &back); err != nil {
			panic(err) // a frame the codec just wrote must decode
		}
		unitSink += back.Offset
	}
}

// unitMQRef: one reference on an MQ cache of the hit workload's size,
// over a key space twice the capacity (half hits, half inserts+evicts).
func unitMQRef(n int) {
	const capacity = 8192
	mq := mqcache.NewMQ(capacity, 0, 0)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		hit, _, _ := mq.RefOrInsert((x >> 33) % (2 * capacity))
		if hit {
			unitSink++
		}
	}
}

// unitBufpool: one 8 KB Get and Put.
func unitBufpool(n int) {
	p := bufpool.New()
	for i := 0; i < n; i++ {
		b := p.Get(blockSize)
		b[0] = byte(i)
		p.Put(b)
	}
}

// unitDiskq: one 8 KB write then read through a disk queue on a temp
// file, submit and reap one at a time (no batching: the floor a batch
// amortises).
func unitDiskq(dir string, n int) {
	f, err := os.CreateTemp(dir, "unit-diskq-*")
	if err != nil {
		return
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const span = 1024 // blocks
	if err := f.Truncate(span * blockSize); err != nil {
		return
	}
	q, err := diskq.Open(f, diskq.Config{Depth: 8})
	if err != nil {
		return
	}
	defer q.Close()
	buf := q.GetBuf(blockSize)
	defer q.PutBuf(buf)
	out := make([]diskq.Completion, 1)
	for i := 0; i < n; i++ {
		off := int64(i%span) * blockSize
		var err error
		if i%2 == 0 {
			_, err = q.SubmitWrite(buf, off)
		} else {
			_, err = q.SubmitRead(buf, off)
		}
		if err != nil {
			return
		}
		if _, err := q.Reap(out, 1); err != nil {
			return
		}
	}
}

// unitRepl: one log append and its acknowledgement by two consumers, as
// a mirror write does.
func unitRepl(n int) {
	l := repl.New(64<<20, repl.Config{})
	a, b := l.Consumer("a"), l.Consumer("b")
	ga, gb := a.Gen(), b.Gen()
	for i := 0; i < n; i++ {
		seq := l.Append(int64(i%8192)*blockSize, blockSize)
		a.Ack(seq, ga)
		b.Ack(seq, gb)
	}
}

// unitVolumeMap: map one 8 KB write onto a two-replica mirror.
func unitVolumeMap(n int) {
	inner, err := volume.NewConcat(64 << 20)
	if err != nil {
		return
	}
	m, err := volume.NewMirror(inner, 2)
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		ext, err := m.MapWrite(int64(i%8192)*blockSize, blockSize)
		if err != nil {
			return
		}
		unitSink += uint64(len(ext))
	}
}
