package wire

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
)

// groupBufSize is the coalescing window of a groupWriter. It comfortably
// holds a batch of metadata-sized frames (stat/mget/ls responses) while
// staying far below chunk size, so chunk transfers take the direct
// single-write path.
const groupBufSize = 64 << 10

// groupWriter serialises frame writes on one connection and coalesces
// small frames into batched socket writes. The flush rule is
// "last-writer-out": a writer that observes no other writer waiting for
// the lock flushes before returning, so a lone request still hits the wire
// immediately, while N concurrent writers pay ~1 syscall instead of N.
//
// Every socket write stays frame-aligned — a frame is either buffered
// whole or written whole, in one Write on any connection that is not plain
// TCP — which keeps write-side fault injection (fault.go drops whole
// conn.Write calls) from ever corrupting the stream mid-frame.
//
// Errors are sticky: once the underlying connection fails, every later
// write returns the same error, mirroring the dead-connection semantics
// callers already handle.
type groupWriter struct {
	waiters atomic.Int32 // writers blocked on mu; last one out flushes

	mu  sync.Mutex
	w   io.Writer
	bw  *bufio.Writer
	err error
	// hdr is where a buffered frame's header is encoded, under mu. A local
	// array would escape through bw.Write's io.Writer and cost an
	// allocation per frame.
	hdr [headerSize]byte
}

func newGroupWriter(w io.Writer) *groupWriter {
	return &groupWriter{w: w, bw: bufio.NewWriterSize(w, groupBufSize)}
}

// writeFrame buffers or writes f, flushing when no other writer is queued
// behind this one. Safe for concurrent use.
func (g *groupWriter) writeFrame(f *Frame) error {
	g.waiters.Add(1)
	g.mu.Lock()
	g.waiters.Add(-1)
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	total, verr := frameWireLen(f)
	if verr != nil {
		// Invalid frame, nothing buffered for it — but writers behind us
		// may have skipped their flush expecting ours, so honour the
		// last-writer-out contract before bailing.
		if g.waiters.Load() == 0 {
			if err := g.bw.Flush(); err != nil {
				g.err = err
			}
		}
		return verr
	}
	if total > g.bw.Size() {
		// Chunk-sized frame: bypass the coalescing buffer and write it in
		// one call (WriteFrame: one conn.Write, or one writev when the
		// body is lent and the connection is TCP), after draining anything
		// already buffered so ordering holds.
		if err := g.bw.Flush(); err != nil {
			g.err = err
			return err
		}
		if err := WriteFrame(g.w, f); err != nil {
			g.err = err
			return err
		}
		return nil
	}
	if g.bw.Available() < total {
		// Flush on a frame boundary rather than letting bufio split this
		// frame across two socket writes.
		if err := g.bw.Flush(); err != nil {
			g.err = err
			return err
		}
	}
	if err := g.writeBuffered(f); err != nil {
		g.err = err
		return err
	}
	if g.waiters.Load() == 0 {
		if err := g.bw.Flush(); err != nil {
			g.err = err
			return err
		}
	}
	return nil
}
