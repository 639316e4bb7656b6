package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hardens the frame reader against hostile streams: never
// panic, never allocate beyond MaxFrame, and accepted frames re-encode
// identically.
func FuzzReadFrame(f *testing.F) {
	// Seeds on the one layout: untraced, traced+sampled, traced with the
	// sampled flag clear, a cut inside the fixed fields, a cut inside the
	// trace fields, an empty stream, and the three rejected trace-field
	// shapes (span without trace, flags without trace, unknown flag bits);
	// and responses written as head + lent body, with and without a head.
	var plain, traced, unsampled, lent, headless bytes.Buffer
	WriteFrame(&plain, &Frame{Kind: KindRequest, Seq: 9, Method: "m", Payload: []byte("p")})
	WriteFrame(&traced, &Frame{Kind: KindRequest, Seq: 9, Method: "m", Payload: []byte("p"),
		TraceID: 0x1234, SpanID: 0x5678, Sampled: true})
	WriteFrame(&unsampled, &Frame{Kind: KindOneway, Method: "n", TraceID: 1})
	WriteFrame(&lent, &Frame{Kind: KindResponse, Seq: 9, Payload: []byte{0, 0, 0, 4}, lent: []byte("body")})
	WriteFrame(&headless, &Frame{Kind: KindResponse, Seq: 9, lent: []byte("body"), TraceID: 7})
	f.Add(plain.Bytes())
	f.Add(lent.Bytes())
	f.Add(headless.Bytes())
	f.Add(traced.Bytes())
	f.Add(unsampled.Bytes())
	f.Add(plain.Bytes()[:5])
	f.Add(traced.Bytes()[:headerSize-3])
	f.Add([]byte{})
	f.Add(craftTraced(0, 5, 0))
	f.Add(craftTraced(0, 0, flagSampled))
	f.Add(craftTraced(1, 5, 0x80))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("accepted frame does not round-trip")
		}
		// Wherever a sender splits the payload into head and lent body, the
		// bytes on the wire are the same.
		cut := len(fr.Payload) / 2
		split := *fr
		split.Payload, split.lent = fr.Payload[:cut], fr.Payload[cut:]
		var out2 bytes.Buffer
		if err := WriteFrame(&out2, &split); err != nil || !bytes.Equal(out2.Bytes(), out.Bytes()) {
			t.Fatalf("head+body encoding differs from the contiguous one (%v)", err)
		}
		// Pooled-decoder reuse: a copy must survive Release, and a second
		// decode of the same stream — which recycles the released frame's
		// body buffer — must reproduce the first frame exactly. A
		// buffer-recycling bug (stale length, aliased body, bad reset)
		// surfaces here as corruption of the second decode.
		kind, seq, method := fr.Kind, fr.Seq, fr.Method
		traceID, spanID, sampled := fr.TraceID, fr.SpanID, fr.Sampled
		clone := bytes.Clone(fr.Payload)
		fr.Release()
		fr2, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("re-decode after Release failed: %v", err)
		}
		if fr2.Kind != kind || fr2.Seq != seq || fr2.Method != method ||
			fr2.TraceID != traceID || fr2.SpanID != spanID || fr2.Sampled != sampled {
			t.Fatal("re-decode after Release changed header fields")
		}
		if !bytes.Equal(fr2.Payload, clone) {
			t.Fatal("re-decode after Release corrupted payload (clone mismatch)")
		}
		fr2.Release()
	})
}

// FuzzDecoder hardens the payload decoder: arbitrary field sequences on
// arbitrary bytes must never panic.
func FuzzDecoder(f *testing.F) {
	e := NewEncoder(32)
	e.String("x")
	e.Uint64(7)
	e.StringSlice([]string{"a", "b"})
	f.Add(e.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.String()
		_ = d.Uint64()
		_ = d.StringSlice()
		_ = d.Bytes32()
		_ = d.Bool()
		_ = d.Float64()
	})
}
