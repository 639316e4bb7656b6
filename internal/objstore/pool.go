package objstore

import "sync"

// The read-buffer pool behind the PooledReader fast path. Reads on the
// server's hot path (chunk merges, single-file range reads) are
// transient: the bytes are copied into an RPC response or sliced apart
// and then dropped, so the multi-megabyte read buffer can be recycled
// instead of churning the GC. The pool stores a wrapper struct, not a
// slice, so Get/Put never allocate a boxed slice header.
const maxPooledBuf = 8 << 20

type readBuf struct{ b []byte }

var readBufPool = sync.Pool{New: func() any { return new(readBuf) }}

// getReadBuf returns a pooled buffer with at least n usable bytes,
// growing geometrically so one large read does not permanently pin an
// oddly-sized buffer.
func getReadBuf(n int) *readBuf {
	rb := readBufPool.Get().(*readBuf)
	if cap(rb.b) < n {
		size := cap(rb.b)
		if size < 4096 {
			size = 4096
		}
		for size < n {
			size *= 2
		}
		rb.b = make([]byte, size)
	}
	rb.b = rb.b[:n]
	return rb
}

func (rb *readBuf) release() {
	if cap(rb.b) > maxPooledBuf {
		rb.b = nil // let one outsized read go to the GC, keep the pool small
	}
	readBufPool.Put(rb)
}

// PooledReader is an optional Store extension for allocation-free reads:
// the returned bytes are on loan — a pooled buffer (Disk) or the stored
// object itself (Memory) — so the caller must treat them as read-only and
// MUST call release exactly once when done, after which the slice must not
// be touched. Callers that need the data past release must copy it first.
type PooledReader interface {
	// GetPooled is Get into a pooled buffer.
	GetPooled(key string) (data []byte, release func(), err error)
	// GetRangePooled is GetRange into a pooled buffer.
	GetRangePooled(key string, off, n int64) (data []byte, release func(), err error)
}

func noopRelease() {}

// owned turns a lent read into the caller's own copy and hands the loan
// back: every store implements its read once, as the lent one, and its
// Store.Get/GetRange is owned(lent read).
func owned(b []byte, release func(), err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), b...)
	release()
	return out, nil
}

// GetPooled reads a whole object through the store's pooled path when it
// has one, falling back to a plain owned Get (with a no-op release)
// otherwise — so callers can adopt the release protocol without caring
// which Store implementation they were configured with.
func GetPooled(s Store, key string) ([]byte, func(), error) {
	if pr, ok := s.(PooledReader); ok {
		return pr.GetPooled(key)
	}
	b, err := s.Get(key)
	return b, noopRelease, err
}

// GetRangePooled is the range-read analogue of GetPooled.
func GetRangePooled(s Store, key string, off, n int64) ([]byte, func(), error) {
	if pr, ok := s.(PooledReader); ok {
		return pr.GetRangePooled(key, off, n)
	}
	b, err := s.GetRange(key, off, n)
	return b, noopRelease, err
}
