package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func roundtrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	if len(b) != ControlSize {
		t.Fatalf("encoded size %d, want %d", len(b), ControlSize)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return got
}

func TestRoundtripConnect(t *testing.T) {
	m := &Connect{Header: Header{Seq: 7, Ack: 3}, ClientID: 0xdeadbeef, WantCreds: 256}
	got := roundtrip(t, m)
	m.Type = TConnect // parse fills Type
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRoundtripConnectResp(t *testing.T) {
	m := &ConnectResp{Header: Header{Seq: 1}, Status: StatusOK, Credits: 128, MaxXfer: 1 << 17, SessionID: 42}
	got := roundtrip(t, m).(*ConnectResp)
	if got.Credits != 128 || got.MaxXfer != 1<<17 || got.SessionID != 42 {
		t.Fatalf("got %+v", got)
	}
}

func TestRoundtripRead(t *testing.T) {
	m := &Read{
		Header: Header{Seq: 99, Ack: 98}, ReqID: 1234, Volume: 5,
		Offset: 1 << 40, Length: 131072, BufAddr: 0xabcdef0123456789,
		FlagBits: FlagPollCompletion | FlagSync,
	}
	got := roundtrip(t, m).(*Read)
	m.Type = TRead
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRoundtripWrite(t *testing.T) {
	m := &Write{
		Header: Header{Seq: 2}, ReqID: 77, Volume: 1,
		Offset: 8192, Length: 8192, Slot: 31, FlagBits: FlagSync,
	}
	got := roundtrip(t, m).(*Write)
	m.Type = TWrite
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRoundtripResponses(t *testing.T) {
	rr := roundtrip(t, &ReadResp{Header: Header{Seq: 3}, ReqID: 5, Status: StatusEIO, Credits: 2, Length: 8192}).(*ReadResp)
	if rr.ReqID != 5 || rr.Status != StatusEIO || rr.Credits != 2 || rr.Length != 8192 {
		t.Fatalf("ReadResp %+v", rr)
	}
	wr := roundtrip(t, &WriteResp{Header: Header{Seq: 4}, ReqID: 6, Status: StatusEAgain, Credits: 9}).(*WriteResp)
	if wr.ReqID != 6 || wr.Status != StatusEAgain || wr.Credits != 9 {
		t.Fatalf("WriteResp %+v", wr)
	}
}

func TestRoundtripSmallMessages(t *testing.T) {
	cg := roundtrip(t, &CreditGrant{Header: Header{Seq: 10}, Credits: 500}).(*CreditGrant)
	if cg.Credits != 500 {
		t.Fatalf("CreditGrant %+v", cg)
	}
	if _, ok := roundtrip(t, &Ping{Header: Header{Seq: 11}}).(*Ping); !ok {
		t.Fatal("Ping type lost")
	}
	if _, ok := roundtrip(t, &Pong{Header: Header{Seq: 12}}).(*Pong); !ok {
		t.Fatal("Pong type lost")
	}
	d := roundtrip(t, &Disconnect{Header: Header{Seq: 13}, Reason: 7}).(*Disconnect)
	if d.Reason != 7 {
		t.Fatalf("Disconnect %+v", d)
	}
}

func TestRoundtripFlush(t *testing.T) {
	m := &Flush{Header: Header{Seq: 21, Ack: 20}, ReqID: 0x1122334455667788, Volume: 9}
	got := roundtrip(t, m).(*Flush)
	m.Type = TFlush
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
	fr := roundtrip(t, &FlushResp{Header: Header{Seq: 22}, ReqID: 5, Status: StatusEIO, Credits: 3}).(*FlushResp)
	if fr.ReqID != 5 || fr.Status != StatusEIO || fr.Credits != 3 {
		t.Fatalf("FlushResp %+v", fr)
	}
	// UnmarshalInto must reject a type mismatch for the new frames too.
	var wrong Read
	if err := UnmarshalInto(Marshal(m), &wrong); err != ErrBadType {
		t.Fatalf("flush-into-read error = %v, want ErrBadType", err)
	}
}

func TestFlushRoundtripProperty(t *testing.T) {
	f := func(seq, reqID uint64, vol uint32, ack uint32) bool {
		m := &Flush{Header: Header{Seq: seq, Ack: ack}, ReqID: reqID, Volume: vol}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		fl := got.(*Flush)
		return fl.Seq == seq && fl.Ack == ack && fl.ReqID == reqID && fl.Volume == vol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalIntoScrubsScratch(t *testing.T) {
	// A reused scratch buffer full of garbage must produce the identical
	// frame as a fresh Marshal, padding included.
	scratch := bytes.Repeat([]byte{0xff}, ControlSize)
	m := &ReadResp{Header: Header{Seq: 9, Ack: 9}, ReqID: 1, Status: StatusOK, Credits: 1, Length: 512}
	MarshalInto(scratch, m)
	if !bytes.Equal(scratch, Marshal(m)) {
		t.Fatal("MarshalInto differs from Marshal")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	b := Marshal(&Ping{})
	b[0] = 0
	if _, err := Unmarshal(b); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	b = Marshal(&Ping{})
	b[2] = 99
	if _, err := Unmarshal(b); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	b = Marshal(&Ping{})
	b[3] = 200
	if _, err := Unmarshal(b); err != ErrBadType {
		t.Fatalf("type: %v", err)
	}
}

func TestReadWriteStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Connect{ClientID: 1, WantCreds: 64},
		&Read{ReqID: 2, Volume: 3, Offset: 4096, Length: 8192},
		&ReadResp{ReqID: 2, Status: StatusOK, Credits: 1},
		&Disconnect{Reason: 0},
	}
	for _, m := range msgs {
		if err := WriteTo(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if TypeOf(got) != TypeOf(want) {
			t.Fatalf("got %v, want %v", TypeOf(got), TypeOf(want))
		}
	}
	if _, err := ReadFrom(&buf); err == nil {
		t.Fatal("expected EOF on drained stream")
	}
}

// TestRoundtripStreamMessages pins the stream layer's whole wire footprint:
// the header's stream id, class bit included, and nothing else — a stream
// is opened and closed on the client alone, and type numbers 13–15 are
// unassigned, so they decode as unknown types.
func TestRoundtripStreamMessages(t *testing.T) {
	for _, id := range []uint32{0, 17, StreamBackground | 17, StreamBackground | (StreamBackground - 1)} {
		rd := roundtrip(t, &Read{Header: Header{Seq: 30, Stream: id}, ReqID: 1, Volume: 1, Length: 512}).(*Read)
		if rd.Stream != id {
			t.Fatalf("stream id %#x decoded as %#x", id, rd.Stream)
		}
	}
	for typ := MsgType(13); typ <= 15; typ++ {
		b := Marshal(&Ping{Header: Header{Seq: 31, Stream: 17}})
		b[3] = byte(typ)
		if _, err := Unmarshal(b); err != ErrBadType {
			t.Fatalf("type %d: err %v, want ErrBadType", typ, err)
		}
		if got := typ.String(); got != fmt.Sprintf("MsgType(%d)", typ) {
			t.Fatalf("type %d is named %q", typ, got)
		}
	}
}

// TestStreamIDCarriedByAllTypes checks the header's stream id survives a
// roundtrip on every message type: the demux depends on responses echoing
// the stream of the request that caused them.
func TestStreamIDCarriedByAllTypes(t *testing.T) {
	mk := []Message{
		&Connect{}, &ConnectResp{}, &Read{}, &ReadResp{}, &Write{}, &WriteResp{},
		&CreditGrant{}, &Ping{}, &Pong{}, &Disconnect{}, &Flush{}, &FlushResp{},
	}
	for _, m := range mk {
		m.Hdr().Stream = 0xabcd1234
		got := roundtrip(t, m)
		if got.Hdr().Stream != 0xabcd1234 {
			t.Fatalf("%v lost stream id: %+v", TypeOf(m), got.Hdr())
		}
	}
}

// TestLegacyFrameDecodesAsStreamZero pins backward compatibility: a frame
// from a pre-stream peer carries zeros in bytes 60..63 (it was padding),
// so it must decode as stream 0 — and a stream-0 frame we emit must be
// byte-identical to what an old encoder produced.
func TestLegacyFrameDecodesAsStreamZero(t *testing.T) {
	b := Marshal(&Read{Header: Header{Seq: 5}, ReqID: 9, Volume: 1, Length: 4096})
	for _, x := range b[streamOff:] {
		if x != 0 {
			t.Fatalf("stream-0 frame has nonzero trailing bytes % x", b[streamOff:])
		}
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hdr().Stream != 0 {
		t.Fatalf("legacy frame decoded with stream %d", got.Hdr().Stream)
	}
	// New fields ride in regions old peers zeroed: a legacy ConnectResp
	// (features bytes zero) must decode as features-off.
	cr := Marshal(&ConnectResp{Status: StatusOK, Credits: 64, MaxXfer: 1 << 17, SessionID: 3})
	got2, err := Unmarshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	if r := got2.(*ConnectResp); r.Features != 0 {
		t.Fatalf("legacy ConnectResp decoded features=%d", r.Features)
	}
}

func TestSeqAckPreservedForAllTypes(t *testing.T) {
	mk := []func(h Header) Message{
		func(h Header) Message { return &Connect{Header: h} },
		func(h Header) Message { return &ConnectResp{Header: h} },
		func(h Header) Message { return &Read{Header: h} },
		func(h Header) Message { return &ReadResp{Header: h} },
		func(h Header) Message { return &Write{Header: h} },
		func(h Header) Message { return &WriteResp{Header: h} },
		func(h Header) Message { return &CreditGrant{Header: h} },
		func(h Header) Message { return &Ping{Header: h} },
		func(h Header) Message { return &Pong{Header: h} },
		func(h Header) Message { return &Disconnect{Header: h} },
		func(h Header) Message { return &Flush{Header: h} },
		func(h Header) Message { return &FlushResp{Header: h} },
	}
	for _, f := range mk {
		m := f(Header{Seq: 0xfeedface12345678, Ack: 0xcafe1234})
		got := roundtrip(t, m)
		if got.Hdr().Seq != 0xfeedface12345678 || got.Hdr().Ack != 0xcafe1234 {
			t.Fatalf("%v lost seq/ack: %+v", TypeOf(m), got.Hdr())
		}
	}
}

func TestReadRoundtripProperty(t *testing.T) {
	f := func(seq, reqID, bufAddr uint64, vol, length uint32, off uint64, flags uint8) bool {
		m := &Read{
			Header: Header{Seq: seq}, ReqID: reqID, Volume: vol,
			Offset: off, Length: length, BufAddr: bufAddr, FlagBits: flags,
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		r := got.(*Read)
		return r.Seq == seq && r.ReqID == reqID && r.Volume == vol &&
			r.Offset == off && r.Length == length && r.BufAddr == bufAddr && r.FlagBits == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRoundtripProperty(t *testing.T) {
	f := func(seq, reqID uint64, vol, length, slot uint32, off uint64, flags uint8) bool {
		m := &Write{
			Header: Header{Seq: seq}, ReqID: reqID, Volume: vol,
			Offset: off, Length: length, Slot: slot, FlagBits: flags,
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		w := got.(*Write)
		return w.Seq == seq && w.ReqID == reqID && w.Volume == vol &&
			w.Offset == off && w.Length == length && w.Slot == slot && w.FlagBits == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusAndTypeStrings(t *testing.T) {
	if StatusOK.String() != "OK" || StatusEIO.String() != "EIO" ||
		StatusEInval.String() != "EINVAL" || StatusENoVolume.String() != "ENOVOLUME" ||
		StatusEAgain.String() != "EAGAIN" {
		t.Fatal("status strings wrong")
	}
	if Status(99).String() == "" {
		t.Fatal("unknown status should stringify")
	}
	if StatusOK.Err() != nil {
		t.Fatal("OK should map to nil error")
	}
	if StatusEIO.Err() == nil {
		t.Fatal("EIO should map to an error")
	}
	if StatusEOverloaded.String() != "EOVERLOADED" {
		t.Fatal("EOVERLOADED string wrong")
	}
	for _, typ := range []MsgType{TConnect, TConnectResp, TRead, TReadResp, TWrite, TWriteResp, TCreditGrant, TPing, TPong, TDisconnect, TFlush, TFlushResp} {
		if typ.String() == "" {
			t.Fatalf("type %d has no name", typ)
		}
	}
	if MsgType(77).String() != "MsgType(77)" {
		t.Fatal("unknown type string wrong")
	}
}

// TestReadFrameUnmarshalInto covers the zero-allocation decode pair used
// by the netv3 hot loops: ReadFrame validates the header and returns the
// type, UnmarshalInto decodes into a caller-owned struct and rejects a
// frame whose type byte does not match the target.
func TestReadFrameUnmarshalInto(t *testing.T) {
	src := &Read{Header: Header{Seq: 7, Ack: 3}, ReqID: 9, Volume: 2,
		Offset: 4096, Length: 8192, BufAddr: 0xdead, FlagBits: 1}
	var frame [ControlSize]byte
	tp, err := ReadFrame(bytes.NewReader(Marshal(src)), &frame)
	if err != nil {
		t.Fatal(err)
	}
	if tp != TRead {
		t.Fatalf("type = %v, want TRead", tp)
	}
	var dst Read
	if err := UnmarshalInto(frame[:], &dst); err != nil {
		t.Fatal(err)
	}
	src.Type = TRead // decode fills the header's type byte
	if dst != *src {
		t.Fatalf("decode mismatch: %+v != %+v", dst, *src)
	}
	// A mismatched target type must be rejected, not silently garbled.
	var wrong Write
	if err := UnmarshalInto(frame[:], &wrong); err != ErrBadType {
		t.Fatalf("type mismatch error = %v, want ErrBadType", err)
	}
	// The reusable-struct contract: decoding a second frame into dst must
	// fully overwrite the first decode.
	src2 := &Read{Header: Header{Seq: 8}, ReqID: 10, Volume: 1, Length: 512}
	if err := UnmarshalInto(Marshal(src2), &dst); err != nil {
		t.Fatal(err)
	}
	src2.Type = TRead
	if dst != *src2 {
		t.Fatalf("reuse decode mismatch: %+v != %+v", dst, *src2)
	}
}
