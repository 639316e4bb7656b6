package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Kind: KindRequest, Seq: 1, Method: "get", Payload: []byte("hello")},
		{Kind: KindResponse, Seq: 0, Method: "", Payload: nil},
		{Kind: KindError, Seq: 1<<64 - 1, Method: "x", Payload: []byte("boom")},
		{Kind: KindOneway, Seq: 42, Method: "notify", Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &want); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Method != want.Method {
			t.Errorf("header mismatch: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("payload mismatch: %d vs %d bytes", len(got.Payload), len(want.Payload))
		}
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(kind byte, seq uint64, method string, payload []byte) bool {
		if len(method) > 0xFFFF {
			method = method[:0xFFFF]
		}
		want := Frame{Kind: kind, Seq: seq, Method: method, Payload: payload}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &want); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return got.Kind == want.Kind && got.Seq == want.Seq &&
			got.Method == want.Method && bytes.Equal(got.Payload, want.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	b := make([]byte, headerSize)
	if _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: KindRequest, Method: "m", Payload: []byte("payload"),
		TraceID: 7, SpanID: 8, Sampled: true}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: expected error on truncated frame", cut)
		}
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
}

func TestEncoderDecoderAllTypes(t *testing.T) {
	e := NewEncoder(64)
	e.Bool(true)
	e.Bool(false)
	e.Uint32(123456)
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.Float64(3.14159)
	e.Bytes32([]byte{1, 2, 3})
	e.String("DIESEL")
	e.StringSlice([]string{"a", "", "ccc"})

	d := NewDecoder(e.Bytes())
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.Uint32(); got != 123456 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := d.String(); got != "DIESEL" {
		t.Errorf("String = %q", got)
	}
	if got := d.StringSlice(); !reflect.DeepEqual(got, []string{"a", "", "ccc"}) {
		t.Errorf("StringSlice = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.remaining())
	}
}

func TestDecoderShortPayload(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if got := d.Uint64(); got != 0 {
		t.Errorf("short Uint64 = %d, want 0", got)
	}
	if !errors.Is(d.Err(), ErrShortPayload) {
		t.Fatalf("want ErrShortPayload, got %v", d.Err())
	}
	// Subsequent reads stay zero-valued and do not panic.
	if d.String() != "" || d.Bytes32() != nil || d.Uint32() != 0 {
		t.Error("reads after error should return zero values")
	}
}

func TestDecoderHostileLengths(t *testing.T) {
	// A 4-byte count claiming 2^31 strings must not allocate or panic.
	e := NewEncoder(8)
	e.Uint32(1 << 31)
	d := NewDecoder(e.Bytes())
	if ss := d.StringSlice(); ss != nil {
		t.Errorf("hostile StringSlice = %v", ss)
	}
	if d.Err() == nil {
		t.Fatal("expected error on hostile count")
	}

}

func TestEncoderDecoderQuick(t *testing.T) {
	f := func(a uint64, b string, c []byte, d bool, e float64, ss []string) bool {
		enc := NewEncoder(32)
		enc.Uint64(a)
		enc.String(b)
		enc.Bytes32(c)
		enc.Bool(d)
		enc.Float64(e)
		enc.StringSlice(ss)
		dec := NewDecoder(enc.Bytes())
		gotA := dec.Uint64()
		gotB := dec.String()
		gotC := dec.Bytes32()
		gotD := dec.Bool()
		gotE := dec.Float64()
		gotSS := dec.StringSlice()
		if dec.Err() != nil || dec.remaining() != 0 {
			return false
		}
		if len(c) == 0 && len(gotC) == 0 {
			gotC, c = nil, nil
		}
		if len(ss) == 0 && len(gotSS) == 0 {
			gotSS, ss = nil, nil
		}
		eq := gotE == e || (e != e && gotE != gotE) // NaN-safe
		return gotA == a && gotB == b && bytes.Equal(gotC, c) && gotD == d &&
			eq && reflect.DeepEqual(gotSS, ss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	f := &Frame{Kind: KindRequest, Method: string(make([]byte, 0x10000))}
	if err := WriteFrame(&buf, f); err == nil {
		t.Error("oversize method accepted")
	}
}

func TestReadFrameRejectsHugeDeclaredPayload(t *testing.T) {
	// Craft a header claiming a payload larger than MaxFrame.
	hdr := make([]byte, headerSize)
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Kind: KindRequest, Method: "m"})
	copy(hdr, buf.Bytes()[:headerSize])
	hdr[15], hdr[16], hdr[17], hdr[18] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge payload: %v", err)
	}
}
