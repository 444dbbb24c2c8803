package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary frames through the decoder and checks the
// codec invariant: anything Unmarshal accepts must re-encode to a frame
// that decodes to the same message (decode∘encode is a fixed point). The
// seed corpus covers every message type plus truncated, corrupted,
// unassigned-type and old-version frames.
func FuzzUnmarshal(f *testing.F) {
	seeds := []Message{
		&Connect{ClientID: 7, WantCreds: 64, Features: FeatureTrace},
		&ConnectResp{Status: StatusOK, Credits: 32, MaxXfer: 1 << 20, SessionID: 9, Features: FeatureTrace},
		&Read{Header: Header{Stream: 1}, ReqID: 11, Volume: 1, Offset: 8192, Length: 4096},
		&Resp{ReqID: 11, Status: StatusEIO},
		&Write{ReqID: 12, Volume: 2, Offset: 16384, Length: 8192},
		&Resp{ReqID: 12, Status: StatusOK},
		&Ping{},
		&Pong{},
		&Disconnect{},
		&Flush{ReqID: 13, Volume: 3},
		&Resp{ReqID: 13, Status: StatusENoVolume},
		// Zero-length read and its response: the cluster vault's health
		// probe is exactly this frame, so the codec must keep accepting it.
		&Read{ReqID: 14, Volume: 1, Offset: 0, Length: 0},
		&Resp{ReqID: 14, Status: StatusOK, Length: 0},
		&Resp{ReqID: 15, Status: StatusOK, Length: 8192},
	}
	for _, m := range seeds {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add(make([]byte, ControlSize-1))
	corrupt := Marshal(&Flush{ReqID: 1})
	corrupt[3] = 0xFF // unknown type byte
	f.Add(corrupt)
	// Truncated and duplicated keepalive frames: TPing is the op the
	// hung-peer detector rides on, so a mangled ping must be rejected
	// cleanly (truncation) and a doubled one must decode as exactly one
	// frame (the stream framer owns the second).
	ping := Marshal(&Ping{Header: Header{Stream: 21}})
	f.Add(ping[:HeaderSize])
	f.Add(ping[:ControlSize-8])
	f.Add(append(append([]byte{}, ping...), ping...))
	// Frames of the unassigned type numbers (rejected), and a first-version
	// Read (rejected by its version byte).
	for _, typ := range []byte{6, 7, 12, 13, 14, 15} {
		unassigned := Marshal(&Ping{Header: Header{Stream: 1}})
		unassigned[3] = typ
		f.Add(unassigned)
	}
	v1 := Marshal(&Read{ReqID: 16, Volume: 1, Length: 8192})
	v1[2] = 1
	f.Add(v1)
	// Stream-layer seeds: data frames addressed to a stream with and
	// without the background class bit, a truncated stream frame whose
	// stream bytes are cut off, a duplicated stream frame, and a shed
	// response. A stream id is a session-layer concern — the codec must
	// decode any of them.
	f.Add(Marshal(&Write{Header: Header{Stream: StreamBackground | 1}, ReqID: 20, Volume: 1, Length: 8192}))
	sread := Marshal(&Read{Header: Header{Stream: 0xffffffff}, ReqID: 15, Volume: 1, Length: 4096})
	f.Add(sread)
	f.Add(sread[:streamOff]) // truncation that amputates exactly the stream id
	f.Add(append(append([]byte{}, sread...), sread...))
	f.Add(Marshal(&Resp{Header: Header{Stream: 3}, ReqID: 16, Status: StatusEOverloaded, RetryAfterMS: 50}))
	// Trace-layer seeds: a traced request, traced responses carrying a full
	// and a saturated span block, and a truncation that amputates exactly
	// the trace id bytes.
	traced := Marshal(&Read{Header: Header{Trace: 0x0123456789abcdef}, ReqID: 17, Volume: 1, Length: 8192})
	f.Add(traced)
	f.Add(traced[:traceOff])
	f.Add(Marshal(&Resp{Header: Header{Trace: 0xfedcba9876543210}, ReqID: 17, Status: StatusOK, Length: 8192,
		SrvSpan: SrvSpan{SrvQueueNS: 100, SrvServiceNS: 2000}}))
	f.Add(Marshal(&Resp{Header: Header{Trace: 1}, ReqID: 18, Status: StatusOK,
		SrvSpan: SrvSpan{SrvQueueNS: ^uint32(0), SrvServiceNS: ^uint32(0)}}))
	f.Add(Marshal(&Flush{Header: Header{Trace: ^uint64(0)}, ReqID: 19, Volume: 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input: nothing further to check
		}
		re := Marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of %v failed: %v", TypeOf(m), err)
		}
		if TypeOf(m2) != TypeOf(m) {
			t.Fatalf("type changed across roundtrip: %v -> %v", TypeOf(m), TypeOf(m2))
		}
		if !bytes.Equal(Marshal(m2), re) {
			t.Fatalf("%v not a fixed point of decode∘encode", TypeOf(m))
		}
		if *m2.Hdr() != *m.Hdr() {
			t.Fatalf("%v lost its header across roundtrip", TypeOf(m))
		}
	})
}

// TestPingFrameTruncationAndDuplication pins the keepalive frame's edge
// cases deterministically (the fuzz corpus seeds the same shapes): any
// truncation below ControlSize is rejected, and a buffer holding two
// back-to-back pings decodes as the FIRST frame only — trailing bytes
// belong to the stream framer, never to this decode.
func TestPingFrameTruncationAndDuplication(t *testing.T) {
	ping := Marshal(&Ping{Header: Header{Stream: 77}})
	for _, n := range []int{0, 1, HeaderSize - 1, HeaderSize, ControlSize - 8, ControlSize - 1} {
		if _, err := Unmarshal(ping[:n]); err == nil {
			t.Fatalf("truncated ping (%d bytes) decoded without error", n)
		}
	}
	dup := append(append([]byte{}, ping...), ping...)
	m, err := Unmarshal(dup)
	if err != nil {
		t.Fatalf("duplicated ping rejected: %v", err)
	}
	if TypeOf(m) != TPing || m.Hdr().Stream != 77 {
		t.Fatalf("duplicated ping decoded as %v stream=%d", TypeOf(m), m.Hdr().Stream)
	}
}
