package wire

import (
	"bytes"
	"testing"
)

// The trace id and server span ride in bytes that were frame padding
// before the trace feature existed; these tests pin the compatibility
// contract — zero values encode to all-zero bytes (what a pre-trace peer
// emits) and pre-trace frames decode to zero values.

func TestTraceIDRoundtripAllRequests(t *testing.T) {
	const trace = 0x0123456789abcdef
	reqs := []Message{
		&Read{Header: Header{Seq: 1, Trace: trace}, ReqID: 2, Volume: 1, Offset: 4096, Length: 8192},
		&Write{Header: Header{Seq: 2, Trace: trace}, ReqID: 3, Volume: 1, Offset: 8192, Length: 8192},
		&Flush{Header: Header{Seq: 3, Trace: trace}, ReqID: 4, Volume: 1},
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
	rr := roundtrip(t, &ReadResp{Header: Header{Seq: 5, Trace: 9}, ReqID: 1, Status: StatusOK, SrvSpan: sp}).(*ReadResp)
	if rr.SrvSpan != sp || rr.Trace != 9 {
		t.Fatalf("ReadResp span %+v trace %d, want %+v trace 9", rr.SrvSpan, rr.Trace, sp)
	}
	wr := roundtrip(t, &WriteResp{Header: Header{Seq: 6, Trace: 9}, ReqID: 2, Status: StatusOK, SrvSpan: sp}).(*WriteResp)
	if wr.SrvSpan != sp {
		t.Fatalf("WriteResp span %+v, want %+v", wr.SrvSpan, sp)
	}
	fr := roundtrip(t, &FlushResp{Header: Header{Seq: 7, Trace: 9}, ReqID: 3, Status: StatusOK, SrvSpan: sp}).(*FlushResp)
	if fr.SrvSpan != sp {
		t.Fatalf("FlushResp span %+v, want %+v", fr.SrvSpan, sp)
	}
}

// An untraced frame must be byte-identical to what a pre-trace encoder
// produced: all-zero trace and span bytes. This is what makes the
// feature transparently interoperable — old peers read padding, new
// peers read zero (= untraced).
func TestUntracedFramesKeepReservedBytesZero(t *testing.T) {
	b := Marshal(&Read{Header: Header{Seq: 1}, ReqID: 2, Volume: 1, Offset: 4096, Length: 8192})
	if !bytes.Equal(b[traceOff:traceOff+8], make([]byte, 8)) {
		t.Fatalf("untraced Read has nonzero trace bytes: %x", b[traceOff:traceOff+8])
	}
	b = Marshal(&ReadResp{Header: Header{Seq: 2}, ReqID: 3, Status: StatusOK})
	if !bytes.Equal(b[HeaderSize+spanOff:HeaderSize+spanOff+16], make([]byte, 16)) {
		t.Fatalf("untraced ReadResp has nonzero span bytes: %x", b[HeaderSize+spanOff:HeaderSize+spanOff+16])
	}
}

// A frame whose reserved bytes are zero (anything a pre-trace peer
// sends) decodes as untraced with a zero span.
func TestPreTraceFrameDecodesUntraced(t *testing.T) {
	b := Marshal(&ReadResp{Header: Header{Seq: 8}, ReqID: 4, Status: StatusOK, Length: 8192})
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rr := got.(*ReadResp)
	if rr.Trace != 0 || rr.SrvSpan != (SrvSpan{}) {
		t.Fatalf("pre-trace frame decoded traced: trace=%d span=%+v", rr.Trace, rr.SrvSpan)
	}
}

// Saturated span fields (the clamp ceiling) survive the round trip.
func TestSrvSpanSaturation(t *testing.T) {
	sp := SrvSpan{SrvQueueNS: ^uint32(0), SrvServiceNS: ^uint32(0)}
	rr := roundtrip(t, &ReadResp{Header: Header{Seq: 9, Trace: 1}, ReqID: 5, Status: StatusOK, SrvSpan: sp}).(*ReadResp)
	if rr.SrvSpan != sp {
		t.Fatalf("saturated span %+v, want %+v", rr.SrvSpan, sp)
	}
}
