package wire

import (
	"bytes"
	"strings"
	"testing"

	"diesel/internal/obs"
)

// benchServer starts an echo server and a client for round-trip benchmarks.
func benchServer(b testing.TB, opts ...Option) (*Client, func()) {
	b.Helper()
	srv := NewServer()
	srv.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	c, err := Dial(addr, opts...)
	if err != nil {
		srv.Close()
		b.Fatalf("dial: %v", err)
	}
	return c, func() {
		c.Close()
		srv.Close()
	}
}

// BenchmarkRoundTrip measures one echo RPC with wire metrics enabled and
// disabled. The acceptance bar for the instrumentation is that the
// "instrumented" sub-benchmark regresses the round trip by under 2% —
// the network syscalls dominate, so a handful of atomic adds should be
// invisible. Compare with:
//
//	go test -run '^$' -bench RoundTrip -count 10 ./internal/wire | benchstat
func BenchmarkRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 1024)
	for _, bc := range []struct {
		name string
		on   bool
	}{
		{"instrumented", true},
		{"uninstrumented", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			enableMetrics(bc.on)
			defer enableMetrics(true)
			c, stop := benchServer(b)
			defer stop()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for range b.N {
				if _, err := c.Call("echo", payload); err != nil {
					b.Fatalf("call: %v", err)
				}
			}
		})
	}
}

// enableMetrics turns wire instrumentation on (the default) or off.
func enableMetrics(on bool) { metricsOff.Store(!on) }

// TestMetricsGate verifies enableMetrics(false) freezes the wire counters
// and that a round trip with metrics on moves frames, bytes, latency
// histograms and (for an unknown method) the "?" error counter.
func TestMetricsGate(t *testing.T) {
	c, stop := benchServer(t)
	defer stop()

	enableMetrics(false)
	framesBefore := mFramesOut.Load()
	if _, err := c.Call("echo", []byte("off")); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := mFramesOut.Load(); got != framesBefore {
		t.Fatalf("frames out moved while metrics disabled: %d -> %d", framesBefore, got)
	}

	enableMetrics(true)
	bytesBefore := mBytesOut.Load()
	callsBefore := callHists.get("echo").Count()
	servedBefore := serveHists.get("echo").Count()
	if _, err := c.Call("echo", []byte("hello")); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := mFramesOut.Load(); got <= framesBefore {
		t.Fatalf("frames out did not move: %d -> %d", framesBefore, got)
	}
	if got := mBytesOut.Load(); got < bytesBefore+uint64(len("hello")) {
		t.Fatalf("bytes out did not account payload: %d -> %d", bytesBefore, got)
	}
	if got := callHists.get("echo").Count(); got != callsBefore+1 {
		t.Fatalf("call histogram count = %d, want %d", got, callsBefore+1)
	}
	if got := serveHists.get("echo").Count(); got != servedBefore+1 {
		t.Fatalf("serve histogram count = %d, want %d", got, servedBefore+1)
	}

	unknownBefore := serveErrCounter("?").Load()
	if _, err := c.Call("no-such-method", nil); err == nil {
		t.Fatal("unknown method unexpectedly succeeded")
	}
	if got := serveErrCounter("?").Load(); got != unknownBefore+1 {
		t.Fatalf(`error counter for method="?" = %d, want %d`, got, unknownBefore+1)
	}

	var buf bytes.Buffer
	if err := obs.Default().WriteText(&buf); err != nil {
		t.Fatalf("write text: %v", err)
	}
	for _, want := range []string{
		`diesel_wire_frames_total{dir="out"}`,
		`diesel_wire_call_seconds_bucket{method="echo",le=`,
		`diesel_wire_errors_total{method="?"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics text missing %q", want)
		}
	}
}

// TestBytesInCountsPayload pins that byte counters track payload sizes,
// not framing overhead, on both directions of a round trip.
func TestBytesInCountsPayload(t *testing.T) {
	c, stop := benchServer(t)
	defer stop()
	enableMetrics(true)

	inBefore, outBefore := mBytesIn.Load(), mBytesOut.Load()
	payload := bytes.Repeat([]byte("p"), 4096)
	if _, err := c.Call("echo", payload); err != nil {
		t.Fatalf("call: %v", err)
	}
	// Request out + response in on the client, request in + response out on
	// the server — both processes share this registry, so each direction
	// gains at least 2× the payload.
	if got := mBytesIn.Load() - inBefore; got < 2*uint64(len(payload)) {
		t.Errorf("bytes in moved by %d, want >= %d", got, 2*len(payload))
	}
	if got := mBytesOut.Load() - outBefore; got < 2*uint64(len(payload)) {
		t.Errorf("bytes out moved by %d, want >= %d", got, 2*len(payload))
	}
}
