package wire

import (
	"bytes"
	"testing"
)

// The trace id and server span have fixed places in the frame; these
// tests pin their contract — zero values encode to all-zero bytes (an
// untraced frame) and all-zero bytes decode to zero values.

func TestTraceIDRoundtripAllRequests(t *testing.T) {
	const trace = 0x0123456789abcdef
	reqs := []Message{
		&Read{Header: Header{Trace: trace}, ReqID: 2, Volume: 1, Offset: 4096, Length: 8192},
		&Write{Header: Header{Trace: trace}, ReqID: 3, Volume: 1, Offset: 8192, Length: 8192},
		&Flush{Header: Header{Trace: trace}, ReqID: 4, Volume: 1},
	}
	for _, m := range reqs {
		got := roundtrip(t, m)
		if tr := got.Hdr().Trace; tr != trace {
			t.Fatalf("%T: Trace = %#x, want %#x", m, tr, trace)
		}
	}
}

func TestSrvSpanRoundtripAllResponses(t *testing.T) {
	sp := SrvSpan{SrvQueueNS: 11, SrvServiceNS: 2222}
	// One Resp answers every request type: a read's carries a payload
	// length beside the span, a write's or flush's none.
	for _, n := range []uint32{8192, 0} {
		rr := roundtrip(t, &Resp{Header: Header{Trace: 9}, ReqID: 1, Status: StatusOK, Length: n, SrvSpan: sp}).(*Resp)
		if rr.SrvSpan != sp || rr.Trace != 9 || rr.Length != n {
			t.Fatalf("Resp span %+v trace %d length %d, want %+v trace 9 length %d", rr.SrvSpan, rr.Trace, rr.Length, sp, n)
		}
	}
}

// An untraced frame carries all-zero trace and span bytes, and the client
// reads them as "no span".
func TestUntracedFramesKeepReservedBytesZero(t *testing.T) {
	b := Marshal(&Read{ReqID: 2, Volume: 1, Offset: 4096, Length: 8192})
	if !bytes.Equal(b[traceOff:traceOff+8], make([]byte, 8)) {
		t.Fatalf("untraced Read has nonzero trace bytes: %x", b[traceOff:traceOff+8])
	}
	b = Marshal(&Resp{ReqID: 3, Status: StatusOK})
	if !bytes.Equal(b[HeaderSize+spanOff:HeaderSize+spanOff+16], make([]byte, 16)) {
		t.Fatalf("untraced Resp has nonzero span bytes: %x", b[HeaderSize+spanOff:HeaderSize+spanOff+16])
	}
}

// A frame whose trace and span bytes are zero decodes as untraced with a
// zero span.
func TestPreTraceFrameDecodesUntraced(t *testing.T) {
	b := Marshal(&Resp{ReqID: 4, Status: StatusOK, Length: 8192})
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rr := got.(*Resp)
	if rr.Trace != 0 || rr.SrvSpan != (SrvSpan{}) {
		t.Fatalf("pre-trace frame decoded traced: trace=%d span=%+v", rr.Trace, rr.SrvSpan)
	}
}

// Saturated span fields (the clamp ceiling) survive the round trip.
func TestSrvSpanSaturation(t *testing.T) {
	sp := SrvSpan{SrvQueueNS: ^uint32(0), SrvServiceNS: ^uint32(0)}
	rr := roundtrip(t, &Resp{Header: Header{Trace: 1}, ReqID: 5, Status: StatusOK, SrvSpan: sp}).(*Resp)
	if rr.SrvSpan != sp {
		t.Fatalf("saturated span %+v, want %+v", rr.SrvSpan, sp)
	}
}
