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
	m := &Connect{Header: Header{Stream: 3}, ClientID: 0xdeadbeef, WantCreds: 256, Features: FeatureTrace}
	if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRoundtripConnectResp(t *testing.T) {
	m := &ConnectResp{Status: StatusOK, Credits: 128, MaxXfer: 1 << 17, SessionID: 42, Features: FeatureTrace}
	if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRoundtripRead(t *testing.T) {
	m := &Read{Header: Header{Stream: 99, Trace: 98}, ReqID: 1234, Volume: 5, Offset: 1 << 40, Length: 131072}
	if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestRoundtripWrite(t *testing.T) {
	m := &Write{Header: Header{Stream: 2}, ReqID: 77, Volume: 1, Offset: 8192, Length: 8192}
	if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

// TestRoundtripResponses covers the one response shape in each of its
// uses: a read's (payload length), a write's or flush's (none), a shed's
// (retry hint).
func TestRoundtripResponses(t *testing.T) {
	for _, m := range []*Resp{
		{ReqID: 5, Status: StatusOK, Length: 8192},
		{ReqID: 6, Status: StatusEIO},
		{Header: Header{Stream: StreamBackground | 4}, ReqID: 7, Status: StatusEOverloaded, RetryAfterMS: 50},
	} {
		if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v, want %+v", got, m)
		}
	}
}

func TestRoundtripSmallMessages(t *testing.T) {
	for _, m := range []Message{&Ping{Header{Stream: 11}}, &Pong{Header{Stream: 12}}, &Disconnect{Header{Stream: 13}}} {
		if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v, want %+v", got, m)
		}
	}
}

func TestRoundtripFlush(t *testing.T) {
	m := &Flush{Header: Header{Stream: 21, Trace: 20}, ReqID: 0x1122334455667788, Volume: 9}
	if got := roundtrip(t, m); !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
	// UnmarshalInto must reject a type mismatch.
	var wrong Read
	if err := UnmarshalInto(Marshal(m), &wrong); err != ErrBadType {
		t.Fatalf("flush-into-read error = %v, want ErrBadType", err)
	}
}

func TestFlushRoundtripProperty(t *testing.T) {
	f := func(stream uint32, trace, reqID uint64, vol uint32) bool {
		m := &Flush{Header: Header{Stream: stream, Trace: trace}, ReqID: reqID, Volume: vol}
		got, err := Unmarshal(Marshal(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalIntoScrubsScratch(t *testing.T) {
	// A reused scratch buffer full of garbage must produce the identical
	// frame as a fresh Marshal, padding included.
	scratch := bytes.Repeat([]byte{0xff}, ControlSize)
	m := &Resp{Header: Header{Stream: 9}, ReqID: 1, Status: StatusOK, Length: 512}
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

// TestRetiredTypesAndVersionRejected pins the protocol's edges: the type
// numbers nothing sends (6, 7, 12–15) decode as unknown, and every frame
// of the first protocol version — whatever its type — is refused, which is
// how a peer of that version is turned away at the handshake.
func TestRetiredTypesAndVersionRejected(t *testing.T) {
	for _, typ := range []MsgType{0, 6, 7, 12, 13, 14, 15} {
		b := Marshal(&Ping{Header: Header{Stream: 17}})
		b[3] = byte(typ)
		if _, err := Unmarshal(b); err != ErrBadType {
			t.Fatalf("type %d: err %v, want ErrBadType", typ, err)
		}
		if got := typ.String(); got != fmt.Sprintf("MsgType(%d)", typ) {
			t.Fatalf("type %d is named %q", typ, got)
		}
	}
	for typ := 1; typ <= 15; typ++ {
		b := Marshal(&Ping{})
		b[2], b[3] = 1, byte(typ)
		if _, err := Unmarshal(b); err != ErrBadVersion {
			t.Fatalf("version-1 frame of type %d: err %v, want ErrBadVersion", typ, err)
		}
		var frame [ControlSize]byte
		if _, err := ReadFrame(bytes.NewReader(b), &frame); err != ErrBadVersion {
			t.Fatalf("ReadFrame of version-1 type %d: err %v, want ErrBadVersion", typ, err)
		}
	}
}

// TestReservedBytesStayZero pins the frame layout: with every field of a
// message at its all-ones value, exactly the bytes the layout names for
// that type are nonzero — magic, version, type, the type's payload fields
// at their fixed offsets, trace and stream — and every other byte,
// frame bytes 4–15 included, is zero.
func TestReservedBytesStayZero(t *testing.T) {
	const u64, u32, u16 = ^uint64(0), ^uint32(0), ^uint16(0)
	h := Header{Stream: u32, Trace: u64}
	type span struct{ off, n int } // frame offsets
	req := []span{{16, 24}}        // ReqID, Volume, Offset, Length
	cases := []struct {
		m      Message
		fields []span
	}{
		{&Connect{Header: h, ClientID: u64, WantCreds: u16, Features: u32}, []span{{16, 14}}},
		{&ConnectResp{Header: h, Status: 0xff, Credits: u16, MaxXfer: u32, SessionID: u64, Features: u32}, []span{{16, 19}}},
		{&Read{Header: h, ReqID: u64, Volume: u32, Offset: u64, Length: u32}, req},
		{&Write{Header: h, ReqID: u64, Volume: u32, Offset: u64, Length: u32}, req},
		{&Flush{Header: h, ReqID: u64, Volume: u32}, []span{{16, 12}}},
		{&Resp{Header: h, ReqID: u64, Status: 0xff, Length: u32, RetryAfterMS: u16,
			SrvSpan: SrvSpan{u32, u32}}, []span{{16, 9}, {27, 6}, {36, 8}}},
		{&Ping{h}, nil},
		{&Pong{h}, nil},
		{&Disconnect{h}, nil},
	}
	for _, c := range cases {
		b := Marshal(c.m)
		named := make([]bool, ControlSize)
		for _, s := range append(c.fields, span{0, 4}, span{traceOff, 12}) {
			for i := s.off; i < s.off+s.n; i++ {
				named[i] = true
			}
		}
		for i, x := range b {
			if named[i] && x == 0 {
				t.Fatalf("%v: field byte %d is zero: % x", TypeOf(c.m), i, b)
			}
			if !named[i] && x != 0 {
				t.Fatalf("%v: reserved byte %d is %#x: % x", TypeOf(c.m), i, x, b)
			}
		}
	}
}

func TestReadWriteStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Connect{ClientID: 1, WantCreds: 64},
		&Read{ReqID: 2, Volume: 3, Offset: 4096, Length: 8192},
		&Resp{ReqID: 2, Status: StatusOK},
		&Disconnect{},
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
// is opened and closed on the client alone.
func TestRoundtripStreamMessages(t *testing.T) {
	for _, id := range []uint32{0, 17, StreamBackground | 17, StreamBackground | (StreamBackground - 1)} {
		rd := roundtrip(t, &Read{Header: Header{Stream: id}, ReqID: 1, Volume: 1, Length: 512}).(*Read)
		if rd.Stream != id {
			t.Fatalf("stream id %#x decoded as %#x", id, rd.Stream)
		}
	}
}

// TestStreamIDCarriedByAllTypes checks the header's stream id survives a
// roundtrip on every message type: the demux depends on responses echoing
// the stream of the request that caused them.
func TestStreamIDCarriedByAllTypes(t *testing.T) {
	mk := []Message{
		&Connect{}, &ConnectResp{}, &Read{}, &Resp{}, &Write{},
		&Ping{}, &Pong{}, &Disconnect{}, &Flush{},
	}
	for _, m := range mk {
		m.Hdr().Stream = 0xabcd1234
		got := roundtrip(t, m)
		if got.Hdr().Stream != 0xabcd1234 {
			t.Fatalf("%v lost stream id: %+v", TypeOf(m), got.Hdr())
		}
	}
}

// TestLegacyFrameDecodesAsStreamZero pins the root session's encoding: a
// stream-0 frame carries zeros in bytes 60..63 and decodes as stream 0,
// and a ConnectResp with zero feature bytes decodes as features-off.
func TestLegacyFrameDecodesAsStreamZero(t *testing.T) {
	b := Marshal(&Read{ReqID: 9, Volume: 1, Length: 4096})
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
		t.Fatalf("root frame decoded with stream %d", got.Hdr().Stream)
	}
	cr := Marshal(&ConnectResp{Status: StatusOK, Credits: 64, MaxXfer: 1 << 17, SessionID: 3})
	got2, err := Unmarshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	if r := got2.(*ConnectResp); r.Features != 0 {
		t.Fatalf("featureless ConnectResp decoded features=%d", r.Features)
	}
}

func TestReadRoundtripProperty(t *testing.T) {
	f := func(stream uint32, trace, reqID uint64, vol, length uint32, off uint64) bool {
		m := &Read{Header: Header{Stream: stream, Trace: trace}, ReqID: reqID, Volume: vol, Offset: off, Length: length}
		got, err := Unmarshal(Marshal(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRoundtripProperty(t *testing.T) {
	f := func(stream uint32, trace, reqID uint64, vol, length uint32, off uint64) bool {
		m := &Write{Header: Header{Stream: stream, Trace: trace}, ReqID: reqID, Volume: vol, Offset: off, Length: length}
		got, err := Unmarshal(Marshal(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusAndTypeStrings(t *testing.T) {
	if StatusOK.String() != "OK" || StatusEIO.String() != "EIO" ||
		StatusEInval.String() != "EINVAL" || StatusENoVolume.String() != "ENOVOLUME" ||
		StatusEOverloaded.String() != "EOVERLOADED" {
		t.Fatal("status strings wrong")
	}
	// Status values keep their numbers; 4 is unassigned.
	if StatusEOverloaded != 5 || Status(4).String() != "Status(4)" || Status(99).String() != "Status(99)" {
		t.Fatal("status numbering or unknown status string wrong")
	}
	if StatusOK.Err() != nil {
		t.Fatal("OK should map to nil error")
	}
	if StatusEIO.Err() == nil {
		t.Fatal("EIO should map to an error")
	}
	for _, typ := range []MsgType{TConnect, TConnectResp, TRead, TResp, TWrite, TPing, TPong, TDisconnect, TFlush} {
		if typ.String() == fmt.Sprintf("MsgType(%d)", typ) {
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
	src := &Read{Header: Header{Stream: 7, Trace: 3}, ReqID: 9, Volume: 2, Offset: 4096, Length: 8192}
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
	src2 := &Read{ReqID: 10, Volume: 1, Length: 512}
	if err := UnmarshalInto(Marshal(src2), &dst); err != nil {
		t.Fatal(err)
	}
	if dst != *src2 {
		t.Fatalf("reuse decode mismatch: %+v != %+v", dst, *src2)
	}
}
