package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"diesel/internal/tracing"
)

// enableTracing flips the process-wide tracer on for one test.
func enableTracing(t *testing.T) {
	t.Helper()
	tracing.Reset()
	tracing.EnableTracing(true)
	tracing.SetSampleRate(1)
	t.Cleanup(func() {
		tracing.EnableTracing(false)
		tracing.Reset()
	})
}

func TestFrameTraceRoundTrip(t *testing.T) {
	want := Frame{
		Kind: KindRequest, Seq: 7, Method: "dsl.get", Payload: []byte("p"),
		TraceID: 0xDEADBEEF, SpanID: 0xCAFE, Sampled: true,
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != want.TraceID || got.SpanID != want.SpanID || got.Sampled != want.Sampled {
		t.Fatalf("trace fields mismatch: %+v", got)
	}
	if got.Method != want.Method || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("body mismatch: %+v", got)
	}
}

// TestFrameUntracedIsCanonical pins the one layout: a frame without a trace
// ID is the same size as a traced one, and span ID / sampled set without a
// trace ID are encoded as zero, so what a reader accepts re-encodes
// byte-identically.
func TestFrameUntracedIsCanonical(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: KindResponse, Seq: 3, Method: "m", Payload: []byte("x"),
		SpanID: 5, Sampled: true}); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), buf.Bytes()...)
	if len(b) != headerSize+1+1 {
		t.Fatalf("frame is %d bytes, want %d", len(b), headerSize+2)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.SpanID != 0 || got.Sampled {
		t.Fatalf("untraced frame decoded with trace fields: %+v", got)
	}
	var again bytes.Buffer
	if err := WriteFrame(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), b) {
		t.Fatal("untraced frame does not re-encode byte-identically")
	}
}

func TestFrameTraceRoundTripUnsampledFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Kind: KindRequest, Method: "m", TraceID: 9, SpanID: 8}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 9 || got.SpanID != 8 || got.Sampled {
		t.Fatalf("unsampled frame mismatch: %+v", got)
	}
}

// craftTraced builds a raw frame so tests can corrupt the trace fields.
func craftTraced(traceID, spanID uint64, flags byte) []byte {
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Kind: KindRequest, Method: "m"})
	b := buf.Bytes()
	binary.BigEndian.PutUint64(b[19:27], traceID)
	binary.BigEndian.PutUint64(b[27:35], spanID)
	b[35] = flags
	return b
}

func TestReadFrameRejectsBadTraceBlock(t *testing.T) {
	for _, tc := range []struct {
		name            string
		traceID, spanID uint64
		flags           byte
		ok              bool
	}{
		{"untraced", 0, 0, 0, true},
		{"traced sampled", 1, 5, flagSampled, true},
		{"traced unsampled", 1, 5, 0, true},
		{"span without trace", 0, 5, 0, false},
		{"flags without trace", 0, 0, flagSampled, false},
		{"unknown flag bits", 1, 5, 0x80, false},
		{"unknown flag bits untraced", 0, 0, 0x02, false},
	} {
		_, err := ReadFrame(bytes.NewReader(craftTraced(tc.traceID, tc.spanID, tc.flags)))
		if tc.ok && err != nil {
			t.Fatalf("%s: valid frame rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadTraceBlock) {
			t.Fatalf("%s: want ErrBadTraceBlock, got %v", tc.name, err)
		}
	}
}

// TestTracePropagationAcrossRPC is the package-level acceptance check for
// the tentpole mechanism: a client call span's IDs must arrive in the
// server handler's context, and the server-side trace must land in the
// collector keyed by the same trace ID with the client span as parent.
func TestTracePropagationAcrossRPC(t *testing.T) {
	enableTracing(t)
	srv := NewServer()
	handlerTrace := make(chan uint64, 1)
	srv.HandleReply("echo", func(ctx context.Context, p []byte, r *Reply) error {
		_, inner := tracing.StartSpan(ctx, "handler.work")
		inner.End()
		handlerTrace <- tracing.FromContext(ctx).TraceID()
		r.Lend(p, nil)
		return nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, root := tracing.StartSpan(context.Background(), "client.op")
	if _, err := c.CallContext(ctx, "echo", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	root.End()

	var remoteID uint64
	select {
	case remoteID = <-handlerTrace:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never saw a span")
	}
	if remoteID != root.TraceID() {
		t.Fatalf("server trace %x, client trace %x", remoteID, root.TraceID())
	}

	// Both local traces (client root + server serve) share the ID; the
	// serve root's parent must be the client's "call echo" span. The serve
	// span ends after the response is written, so it may reach the
	// collector a moment after the call has returned.
	tds := tracing.ByID(root.TraceID())
	for deadline := time.Now().Add(2 * time.Second); len(tds) < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		tds = tracing.ByID(root.TraceID())
	}
	if len(tds) != 2 {
		t.Fatalf("collector has %d traces for the ID, want 2 (client+server)", len(tds))
	}
	var callSpanID uint64
	var serveParent uint64
	for _, td := range tds {
		for _, s := range td.Spans {
			if s.Name == "call echo" {
				callSpanID = s.SpanID
			}
			if s.Name == "serve echo" {
				serveParent = s.ParentID
			}
		}
	}
	if callSpanID == 0 || serveParent != callSpanID {
		t.Fatalf("serve span parent %x, want client call span %x", serveParent, callSpanID)
	}
}

// TestFirstCallOnFreshConnIsTraced: with no negotiation, the very first
// call on a brand-new connection, made under a sampled span, already
// carries its trace context — the server's `serve echo` span exists and is
// parented under the client's `call echo` span. 100 fresh connections, no
// sleep, no settling.
func TestFirstCallOnFreshConnIsTraced(t *testing.T) {
	enableTracing(t)
	srv := NewServer()
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := range 100 {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx, root := tracing.StartSpan(context.Background(), "client.op")
		_, err = c.CallContext(ctx, "echo", nil)
		root.End()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		// The server ends its span after writing the response, so the
		// client can get here first: poll the collector for it.
		var callSpan, serveParent uint64
		deadline := time.Now().Add(2 * time.Second)
		for {
			callSpan, serveParent = 0, 0
			for _, td := range tracing.ByID(root.TraceID()) {
				for _, s := range td.Spans {
					switch s.Name {
					case "call echo":
						callSpan = s.SpanID
					case "serve echo":
						serveParent = s.ParentID
					}
				}
			}
			if callSpan != 0 && serveParent != 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("conn %d: no serve span for the first call (call span %x)", i, callSpan)
			}
			runtime.Gosched()
		}
		if serveParent != callSpan {
			t.Fatalf("conn %d: serve span parent %x, want call span %x", i, serveParent, callSpan)
		}
	}
}
