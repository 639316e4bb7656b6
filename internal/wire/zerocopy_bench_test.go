package wire

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// The BenchmarkWireFrame* family is the allocation budget of the frame
// layer: the CI bench guard (cmd/benchguard, BENCH_baseline.json) fails
// the build when allocs/op regresses more than 10% on any of them. Run
// with:
//
//	go test -run '^$' -bench WireFrame -benchmem ./internal/wire
func benchFrame(payloadSize int) *Frame {
	return &Frame{
		Kind:    KindRequest,
		Seq:     42,
		Method:  "dsl.getChunk",
		Payload: bytes.Repeat([]byte("z"), payloadSize),
	}
}

// BenchmarkWireFrameWrite measures encoding one frame to a discarding
// writer — the pure serialisation cost with no syscalls behind it.
func BenchmarkWireFrameWrite(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		name := "64B"
		if size > 64 {
			name = "64KB"
		}
		b.Run(name, func(b *testing.B) {
			f := benchFrame(size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				if err := WriteFrame(io.Discard, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireFrameRead measures decoding one frame from an in-memory
// stream, releasing each decoded frame so pooled body buffers recycle.
func BenchmarkWireFrameRead(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		name := "64B"
		if size > 64 {
			name = "64KB"
		}
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, benchFrame(size)); err != nil {
				b.Fatal(err)
			}
			enc := buf.Bytes()
			r := bytes.NewReader(enc)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				r.Reset(enc)
				f, err := ReadFrame(r)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}

// BenchmarkWireFrameRoundTrip measures one echo RPC over loopback TCP —
// the end-to-end per-call allocation cost of the transport, request and
// response included. 1KB-deadline is the 1KB call on a connection dialed
// WithCallTimeout, which must cost no more.
func BenchmarkWireFrameRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
		opts []Option
	}{
		{"1KB", 1 << 10, nil},
		{"1KB-deadline", 1 << 10, []Option{WithCallTimeout(time.Second)}},
		{"64KB", 64 << 10, nil},
	} {
		size := bc.size
		b.Run(bc.name, func(b *testing.B) {
			payload := bytes.Repeat([]byte("x"), size)
			c, stop := benchServer(b, bc.opts...)
			defer stop()
			// One call before the timer: Dial returns before the server has
			// set its side of the connection up (two 64 KiB bufio buffers),
			// which otherwise lands in the timed calls or not, by a race.
			if _, err := c.Call("echo", payload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for b.Loop() {
				if _, err := c.Call("echo", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireFrameEncoder measures building a typical request payload
// with the codec: "fresh" allocates per message (NewEncoder), "pooled" is
// the AcquireEncoder/Release recycling path hot call sites use.
func BenchmarkWireFrameEncoder(b *testing.B) {
	blob := bytes.Repeat([]byte("d"), 4<<10)
	encode := func(e *Encoder) {
		e.String("imagenet")
		e.String("train/c0001/img0000042.bin")
		e.Bytes32(blob)
	}
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(4 << 10)
		b.ReportAllocs()
		for b.Loop() {
			e := NewEncoder(len(blob) + 64)
			encode(e)
			if len(e.Bytes()) == 0 {
				b.Fatal("empty payload")
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.SetBytes(4 << 10)
		b.ReportAllocs()
		for b.Loop() {
			e := AcquireEncoder(len(blob) + 64)
			encode(e)
			if len(e.Bytes()) == 0 {
				b.Fatal("empty payload")
			}
			e.Release()
		}
	})
}
