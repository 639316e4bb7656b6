package wire

import (
	"net"
	"sync"
)

// Buffer pooling for the frame hot path.
//
// Two pools back the transport: framePool recycles Frame structs together
// with the body buffers of small frames (the contiguous method+payload
// storage ReadFrame fills), and scratchPool recycles large contiguous
// buffers — the ones WriteFrame serialises into and the ones ReadFrame
// reads a frame beyond the coalescing size into. Both follow the same
// safety rule: storage is reused only after an explicit Release/release
// call. A frame that is never released is simply garbage-collected —
// leaking a frame costs memory churn, never corruption. A payload the
// caller keeps (Client.CallContext) never enters a pool in the first
// place: readFrame gives it an allocation of its own.

// maxRetainBody bounds the buffers the pools keep. Whole cache chunks ride
// single frames, so the cap is chunk-sized; anything larger is handed to
// the GC rather than pinned in a pool forever.
const maxRetainBody = 8 << 20

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// newFrame returns a pooled frame with all header fields zeroed. Its body
// buffer (if any) is retained for ReadFrame to reuse.
func newFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.Kind = 0
	f.Seq = 0
	f.Method = ""
	f.Payload = nil
	f.TraceID = 0
	f.SpanID = 0
	f.Sampled = false
	return f
}

// scratch is a pooled large buffer. The wrapper struct travels with the
// buffer through the pool so steady-state acquire/release allocates
// nothing (Put-ing a bare slice would box its header every time).
type scratch struct {
	b []byte
	// vec and bufs are WriteFrame's writev argument (staged bytes, lent
	// body). They live here because net.Buffers.WriteTo takes a pointer
	// that escapes; on a pooled struct that costs nothing.
	vec  [2][]byte
	bufs net.Buffers
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch whose buffer holds at least n bytes,
// growing geometrically so repeated slightly-larger requests don't
// reallocate every time.
func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.b) < n {
		s.b = make([]byte, nextSize(cap(s.b), n))
	}
	return s
}

func (s *scratch) release() {
	if cap(s.b) <= maxRetainBody {
		scratchPool.Put(s)
	}
}

// nextSize doubles cur until it covers need, starting from a floor that
// keeps tiny frames from churning through many growth steps.
func nextSize(cur, need int) int {
	n := cur * 2
	if n < 256 {
		n = 256
	}
	for n < need {
		n *= 2
	}
	return n
}

// Method-name interning: the method set of a deployment is tiny and
// static, so ReadFrame resolves method bytes through a shared table
// instead of allocating a fresh string per frame. The read path relies on
// the compiler's map[string([]byte)] lookup optimisation to stay
// allocation-free on hits.
var (
	internMu  sync.RWMutex
	internTab = make(map[string]string)
)

// maxInterned caps the table so a peer spraying random method names cannot
// grow it without bound; overflow names are returned uninterned.
const maxInterned = 1024

func internMethod(b []byte) string {
	internMu.RLock()
	s, ok := internTab[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(internTab) < maxInterned {
		internTab[s] = s
	}
	internMu.Unlock()
	return s
}
