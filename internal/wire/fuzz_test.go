package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary frames through the decoder and checks the
// codec invariant: anything Unmarshal accepts must re-encode to a frame
// that decodes to the same message (decode∘encode is a fixed point). The
// seed corpus covers every message type, including Flush/FlushResp, plus
// truncated and corrupted frames.
func FuzzUnmarshal(f *testing.F) {
	seeds := []Message{
		&Connect{Header: Header{Seq: 1}, ClientID: 7, WantCreds: 64},
		&ConnectResp{Header: Header{Seq: 2}, Status: StatusOK, Credits: 32, MaxXfer: 1 << 20, SessionID: 9},
		&Read{Header: Header{Seq: 3, Ack: 1}, ReqID: 11, Volume: 1, Offset: 8192, Length: 4096, BufAddr: 0xbeef, FlagBits: 3},
		&ReadResp{Header: Header{Seq: 4}, ReqID: 11, Status: StatusEIO, Credits: 1, Length: 512},
		&Write{Header: Header{Seq: 5}, ReqID: 12, Volume: 2, Offset: 16384, Length: 8192, Slot: 3, FlagBits: 1},
		&WriteResp{Header: Header{Seq: 6}, ReqID: 12, Status: StatusEAgain, Credits: 2},
		&CreditGrant{Header: Header{Seq: 7}, Credits: 8},
		&Ping{Header: Header{Seq: 8}},
		&Pong{Header: Header{Seq: 9}},
		&Disconnect{Header: Header{Seq: 10}, Reason: 1},
		&Flush{Header: Header{Seq: 11, Ack: 4}, ReqID: 13, Volume: 3},
		&FlushResp{Header: Header{Seq: 12}, ReqID: 13, Status: StatusOK, Credits: 1},
		// Zero-length read and its response: the cluster vault's health
		// probe is exactly this frame, so the codec must keep accepting it.
		&Read{Header: Header{Seq: 13}, ReqID: 14, Volume: 1, Offset: 0, Length: 0},
		&ReadResp{Header: Header{Seq: 14}, ReqID: 14, Status: StatusOK, Credits: 1, Length: 0},
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
	ping := Marshal(&Ping{Header: Header{Seq: 21}})
	f.Add(ping[:HeaderSize])
	f.Add(ping[:ControlSize-8])
	f.Add(append(append([]byte{}, ping...), ping...))
	// Stream-layer seeds: frames of the unassigned type numbers 13–15
	// (rejected), data frames addressed to a stream with and without the
	// background class bit, a truncated stream frame whose stream bytes are
	// cut off, and a duplicated stream frame. A stream id is a session-layer
	// concern — the codec must decode any of them.
	for typ := byte(13); typ <= 15; typ++ {
		unassigned := Marshal(&Ping{Header: Header{Seq: 22, Stream: 1}})
		unassigned[3] = typ
		f.Add(unassigned)
	}
	f.Add(Marshal(&Write{Header: Header{Seq: 25, Stream: StreamBackground | 1}, ReqID: 20, Volume: 1, Length: 8192}))
	sread := Marshal(&Read{Header: Header{Seq: 26, Stream: 0xffffffff}, ReqID: 15, Volume: 1, Length: 4096})
	f.Add(sread)
	f.Add(sread[:streamOff]) // truncation that amputates exactly the stream id
	f.Add(append(append([]byte{}, sread...), sread...))
	f.Add(Marshal(&WriteResp{Header: Header{Seq: 27, Stream: 3}, ReqID: 16, Status: StatusEOverloaded, RetryAfterMS: 50}))
	// Trace-layer seeds: a traced request (trace id in the reserved
	// header bytes), a traced response carrying a full server span
	// block, a saturated span, and a truncation that amputates exactly
	// the trace id bytes.
	traced := Marshal(&Read{Header: Header{Seq: 28, Trace: 0x0123456789abcdef}, ReqID: 17, Volume: 1, Length: 8192})
	f.Add(traced)
	f.Add(traced[:traceOff])
	f.Add(Marshal(&ReadResp{Header: Header{Seq: 29, Trace: 0xfedcba9876543210}, ReqID: 17, Status: StatusOK,
		SrvSpan: SrvSpan{SrvQueueNS: 100, SrvServiceNS: 2000}}))
	f.Add(Marshal(&WriteResp{Header: Header{Seq: 30, Trace: 1}, ReqID: 18, Status: StatusOK,
		SrvSpan: SrvSpan{SrvQueueNS: ^uint32(0), SrvServiceNS: ^uint32(0)}}))
	f.Add(Marshal(&FlushResp{Header: Header{Seq: 31, Trace: ^uint64(0)}, ReqID: 19, Status: StatusOK,
		SrvSpan: SrvSpan{SrvServiceNS: 77}}))

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
		if h := m2.Hdr(); h.Seq != m.Hdr().Seq || h.Ack != m.Hdr().Ack {
			t.Fatalf("%v lost seq/ack across roundtrip", TypeOf(m))
		}
	})
}

// TestPingFrameTruncationAndDuplication pins the keepalive frame's edge
// cases deterministically (the fuzz corpus seeds the same shapes): any
// truncation below ControlSize is rejected, and a buffer holding two
// back-to-back pings decodes as the FIRST frame only — trailing bytes
// belong to the stream framer, never to this decode.
func TestPingFrameTruncationAndDuplication(t *testing.T) {
	ping := Marshal(&Ping{Header: Header{Seq: 77}})
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
	if TypeOf(m) != TPing || m.Hdr().Seq != 77 {
		t.Fatalf("duplicated ping decoded as %v seq=%d", TypeOf(m), m.Hdr().Seq)
	}
}
