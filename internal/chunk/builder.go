package chunk

import (
	"errors"
	"fmt"
)

// Builder accumulates small files and seals them into a chunk once the
// payload reaches the target size. The DIESEL client uses one builder per
// write stream to aggregate files before shipping them to the server
// (Figure 3), which is what turns millions of tiny writes into a few large
// object-store writes.
//
// Each file is copied once, into one payload buffer that is allocated on
// the first Add (a builder that never adds allocates nothing) and keeps
// its capacity from chunk to chunk.
//
// Builder is not safe for concurrent use; each writer goroutine owns one.
type Builder struct {
	target  int
	gen     *IDGenerator
	nowNS   func() int64
	entries []FileEntry
	payload []byte
	head    []byte // SealParts' encoded header, reused from chunk to chunk
	names   map[string]struct{}
}

// ErrDuplicateName is returned when a file name is added twice to the same
// chunk. Duplicate names across chunks are legal (the newer chunk wins at
// the metadata layer); within one chunk they would make lookups ambiguous.
var ErrDuplicateName = errors.New("chunk: duplicate file name in chunk")

// ErrEmptyChunk is returned by Seal when no files were added.
var ErrEmptyChunk = errors.New("chunk: sealing empty chunk")

// NewBuilder returns a builder that seals at targetSize payload bytes
// (DefaultTargetSize if targetSize <= 0). nowNS supplies update timestamps.
func NewBuilder(targetSize int, gen *IDGenerator, nowNS func() int64) *Builder {
	if targetSize <= 0 {
		targetSize = DefaultTargetSize
	}
	return &Builder{
		target: targetSize,
		gen:    gen,
		nowNS:  nowNS,
		names:  make(map[string]struct{}),
	}
}

// Len reports the current payload size in bytes.
func (b *Builder) Len() int { return len(b.payload) }

// Count reports the number of files added so far.
func (b *Builder) Count() int { return len(b.entries) }

// Full reports whether the payload has reached the target size.
func (b *Builder) Full() bool { return len(b.payload) >= b.target }

// bufCap is the capacity a full chunk's payload needs: the file that
// fills a chunk runs past the target, and a quarter of the target holds it
// unless it is a large file, for which append regrows the buffer.
func (b *Builder) bufCap() int { return b.target + b.target/4 }

// maxPresize bounds the payload buffer's first allocation: a target far
// above the default means "seal when told to", not "expect this much".
const maxPresize = 2 * DefaultTargetSize

// Add appends one file. It reports whether the chunk is full after the
// append, signalling the caller to Seal and start a new chunk. The first
// Add after a seal overwrites what SealParts returned.
func (b *Builder) Add(name string, data []byte) (full bool, err error) {
	if len(name) > 0xFFFF {
		return false, fmt.Errorf("chunk: file name too long (%d bytes)", len(name))
	}
	if _, dup := b.names[name]; dup {
		return false, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	if b.payload == nil {
		b.payload = make([]byte, 0, min(b.bufCap(), maxPresize))
	}
	b.names[name] = struct{}{}
	b.entries = append(b.entries, FileEntry{
		Name:   name,
		Offset: uint64(len(b.payload)),
		Length: uint64(len(data)),
	})
	b.payload = append(b.payload, data...)
	return b.Full(), nil
}

// Seal serialises the accumulated files into one contiguous encoded chunk
// of exactly its size, which is the caller's, returning it with the
// header, then resets the builder for the next chunk.
func (b *Builder) Seal() (*Header, []byte, error) {
	if len(b.entries) == 0 {
		return nil, nil, ErrEmptyChunk
	}
	h := b.header()
	h.Deleted = NewBitmap(len(b.entries))
	encoded := encode(&h, b.payload)
	b.entries = nil // the header's now
	b.reset()
	return &h, encoded, nil
}

// SealParts is Seal for a caller that sends the chunk away before it adds
// the next file: the encoded chunk is head followed by payload, and
// payload is the builder's buffer itself — nothing is copied or allocated
// and the checksum is computed where the bytes lie. Both pieces are valid,
// and must be left unchanged, until the next Add.
func (b *Builder) SealParts() (head, payload []byte, err error) {
	if len(b.entries) == 0 {
		return nil, nil, ErrEmptyChunk
	}
	h := b.header()
	n := h.EncodedHeaderLen()
	if cap(b.head) < n {
		b.head = make([]byte, n)
	}
	head, payload = b.head[:n], b.payload
	putHeader(head, &h, payload)
	b.entries = b.entries[:0]
	b.reset()
	return head, payload, nil
}

// header stamps the chunk being sealed with its ID and update time.
func (b *Builder) header() Header {
	return Header{
		ID:         b.gen.Next(),
		UpdatedNS:  b.nowNS(),
		Entries:    b.entries,
		PayloadLen: uint64(len(b.payload)),
	}
}

// reset empties the payload buffer and the name set for the next chunk,
// keeping their storage — unless a large file grew the buffer well past
// what a chunk needs, which one handle should not pin for good.
func (b *Builder) reset() {
	if cap(b.payload) > 2*b.bufCap() {
		b.payload = nil
	} else {
		b.payload = b.payload[:0]
	}
	clear(b.names)
}
