package wire

import (
	"bytes"
	"io"
	"testing"
	"time"

	"diesel/internal/testkit"
)

// The frame layer's operations, each built on its own set-up: a
// BenchmarkWireFrame* times one, and TestFrameAllocations holds it to its
// allocation table. Run with:
//
//	go test -run '^$' -bench WireFrame -benchmem ./internal/wire
//	go test -run TestFrameAllocations -v ./internal/wire
func benchFrame(payloadSize int) *Frame {
	return &Frame{
		Kind:    KindRequest,
		Seq:     42,
		Method:  "dsl.getChunk",
		Payload: bytes.Repeat([]byte("z"), payloadSize),
	}
}

// frameWrite encodes one frame to a discarding writer — the pure
// serialisation cost with no syscalls behind it.
func frameWrite(tb testing.TB, size int) func() {
	f := benchFrame(size)
	return func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			tb.Fatal(err)
		}
	}
}

// frameRead decodes one frame from an in-memory stream, releasing each
// decoded frame so pooled body buffers recycle.
func frameRead(tb testing.TB, size int) func() {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, benchFrame(size)); err != nil {
		tb.Fatal(err)
	}
	enc := buf.Bytes()
	r := bytes.NewReader(enc)
	return func() {
		r.Reset(enc)
		f, err := ReadFrame(r)
		if err != nil {
			tb.Fatal(err)
		}
		f.Release()
	}
}

// frameRoundTrip is one echo RPC over loopback TCP — the per-call cost of
// the transport, request and response included.
func frameRoundTrip(tb testing.TB, size int, opts ...Option) func() {
	payload := bytes.Repeat([]byte("x"), size)
	c, stop := benchServer(tb, opts...)
	tb.Cleanup(stop)
	call := func() {
		if _, err := c.Call("echo", payload); err != nil {
			tb.Fatal(err)
		}
	}
	// One call before any is counted: Dial returns before the server has
	// set its side of the connection up (two 64 KiB bufio buffers), which
	// otherwise lands in the counted calls or not, by a race.
	call()
	return call
}

// frameEncode builds a typical request payload with the codec: a fresh
// encoder per message (NewEncoder), or the AcquireEncoder/Release
// recycling path hot call sites use.
func frameEncode(tb testing.TB, pooled bool) func() {
	blob := bytes.Repeat([]byte("d"), 4<<10)
	return func() {
		var e *Encoder
		if pooled {
			e = AcquireEncoder(len(blob) + 64)
			defer e.Release()
		} else {
			e = NewEncoder(len(blob) + 64)
		}
		e.String("imagenet")
		e.String("train/c0001/img0000042.bin")
		e.Bytes32(blob)
		if len(e.Bytes()) == 0 {
			tb.Fatal("empty payload")
		}
	}
}

// frameCase is one operation under its benchmark's sub-name.
type frameCase struct {
	name  string
	size  int
	op    func(testing.TB) func()
	table testkit.Table
}

func writeCases() []frameCase {
	return []frameCase{
		{"64B", 64, func(tb testing.TB) func() { return frameWrite(tb, 64) }, testkit.Nothing},
		{"64KB", 64 << 10, func(tb testing.TB) func() { return frameWrite(tb, 64<<10) }, testkit.Nothing},
	}
}

func readCases() []frameCase {
	return []frameCase{
		{"64B", 64, func(tb testing.TB) func() { return frameRead(tb, 64) }, testkit.Nothing},
		{"64KB", 64 << 10, func(tb testing.TB) func() { return frameRead(tb, 64<<10) }, testkit.Nothing},
	}
}

// roundTripCases: a call allocates the payload its caller keeps. 2 means
// a served request starts a goroutine of its own again instead of going
// to a waiting worker, 3 or more that a pending-call channel or a frame
// header allocates per call again. 1KB-deadline is the 1KB call on a
// connection dialed WithCallTimeout, which must cost no more: a
// context.WithTimeout per call made it 6.
func roundTripCases() []frameCase {
	// A 64 KiB call runs a GC cycle every few dozen calls, after which the
	// pools and the parked goroutines' sudogs fill again.
	kept := func(other, bytes float64) testkit.Table {
		return testkit.Table{
			Sites:  map[string]float64{"wire.readFrame ← wire.(*Client).readLoop": 1},
			Other:  other,
			Allocs: 1 + other,
			Bytes:  bytes,
		}
	}
	return []frameCase{
		{"1KB", 1 << 10, func(tb testing.TB) func() { return frameRoundTrip(tb, 1<<10) }, kept(0.1, 1126)},
		{"1KB-deadline", 1 << 10, func(tb testing.TB) func() {
			return frameRoundTrip(tb, 1<<10, WithCallTimeout(time.Second))
		}, kept(0.1, 1126)},
		{"64KB", 64 << 10, func(tb testing.TB) func() { return frameRoundTrip(tb, 64<<10) }, kept(0.5, 72000)},
	}
}

func encoderCases() []frameCase {
	return []frameCase{
		{"fresh", 4 << 10, func(tb testing.TB) func() { return frameEncode(tb, false) }, testkit.Table{
			Sites:  map[string]float64{"wire.NewEncoder": 2}, // the encoder and its buffer
			Other:  0.01,
			Allocs: 2.01,
			Bytes:  5376,
		}},
		{"pooled", 4 << 10, func(tb testing.TB) func() { return frameEncode(tb, true) }, testkit.Nothing},
	}
}

func benchFrames(b *testing.B, cases []frameCase) {
	for _, fc := range cases {
		b.Run(fc.name, func(b *testing.B) {
			op := fc.op(b)
			b.SetBytes(int64(fc.size))
			b.ReportAllocs()
			for b.Loop() {
				op()
			}
		})
	}
}

func BenchmarkWireFrameWrite(b *testing.B)     { benchFrames(b, writeCases()) }
func BenchmarkWireFrameRead(b *testing.B)      { benchFrames(b, readCases()) }
func BenchmarkWireFrameRoundTrip(b *testing.B) { benchFrames(b, roundTripCases()) }
func BenchmarkWireFrameEncoder(b *testing.B)   { benchFrames(b, encoderCases()) }

// TestFrameAllocations holds every frame operation to its table. Writing
// and reading a frame, and building a payload in a pooled encoder,
// allocate nothing.
func TestFrameAllocations(t *testing.T) {
	for kind, cases := range map[string][]frameCase{
		"Write": writeCases(), "Read": readCases(), "RoundTrip": roundTripCases(), "Encoder": encoderCases(),
	} {
		for _, fc := range cases {
			t.Run(kind+"/"+fc.name, func(t *testing.T) {
				testkit.Check(t, fc.table, testkit.Sites(5000, fc.op(t)))
			})
		}
	}
}
