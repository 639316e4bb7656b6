package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// DefaultTargetSize is the chunk payload size at which a Builder seals,
// matching the paper's ≥4 MB chunks.
const DefaultTargetSize = 4 << 20

// FormatMagic identifies a serialised chunk.
const FormatMagic uint32 = 0xD1E5C401

// FormatVersion is bumped on incompatible layout changes.
const FormatVersion uint16 = 1

// Serialised chunk layout:
//
//	offset size  field
//	0      4     magic
//	4      2     version
//	6      16    chunk ID
//	22     8     update timestamp (Unix nanoseconds)
//	30     4     file count F
//	34     4     deleted count
//	38     8     payload length
//	46     4     header CRC32 (over bytes [0,46) ++ bitmap ++ entry table)
//	50     4     payload CRC32
//	54     B     deletion bitmap, B = ceil(F/8)
//	54+B   …     entry table: per file, u16 name length + name + u64 offset + u64 length
//	…      P     payload (concatenated file contents)
//
// Offsets in the entry table are relative to the start of the payload
// region, so entries stay valid if the header is rewritten in place (e.g.
// when the deletion bitmap changes).
const fixedHeaderSize = 54

// FileEntry describes one file inside a chunk.
type FileEntry struct {
	Name   string // full path of the file within its dataset
	Offset uint64 // byte offset of the content inside the payload region
	Length uint64 // content length in bytes
}

// Header is the decoded metadata of a chunk — everything the DIESEL server
// needs to rebuild the key-value metadata without touching the payload.
type Header struct {
	ID         ID
	UpdatedNS  int64 // update timestamp, Unix nanoseconds
	Deleted    Bitmap
	Entries    []FileEntry
	PayloadLen uint64
}

// EncodedHeaderLen returns the byte length of the serialised header, i.e.
// the offset at which the payload region begins. File content of entry e
// therefore lives at [EncodedHeaderLen()+e.Offset, …+e.Length) in the
// encoded chunk, which is what lets the server serve single files as
// object-store range reads.
func (h *Header) EncodedHeaderLen() int {
	n := fixedHeaderSize + (len(h.Entries)+7)/8
	for _, e := range h.Entries {
		n += 2 + len(e.Name) + 16
	}
	return n
}

// Errors returned by Parse and related functions.
var (
	ErrBadMagic    = errors.New("chunk: bad magic")
	ErrBadVersion  = errors.New("chunk: unsupported version")
	ErrTruncated   = errors.New("chunk: truncated")
	ErrHeaderCRC   = errors.New("chunk: header checksum mismatch")
	ErrPayloadCRC  = errors.New("chunk: payload checksum mismatch")
	ErrFileDeleted = errors.New("chunk: file is deleted")
	ErrNoSuchFile  = errors.New("chunk: no such file in chunk")
)

// Bitmap is a simple bit set used for the per-chunk deletion bitmap.
type Bitmap []byte

// NewBitmap returns a bitmap able to hold n bits.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+7)/8) }

// Get reports bit i. Out-of-range bits read as false.
func (b Bitmap) Get(i int) bool {
	if i < 0 || i/8 >= len(b) {
		return false
	}
	return b[i/8]&(1<<(uint(i)%8)) != 0
}

// Set sets bit i. Out-of-range sets are ignored.
func (b Bitmap) Set(i int) {
	if i < 0 || i/8 >= len(b) {
		return
	}
	b[i/8] |= 1 << (uint(i) % 8)
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

// encode serialises a complete chunk: header, bitmap, entry table and
// payload. The payload slice must contain the file contents at the offsets
// recorded in h.Entries.
func encode(h *Header, payload []byte) []byte {
	headerLen := h.EncodedHeaderLen()
	buf := make([]byte, headerLen+len(payload))
	copy(buf[headerLen:], payload)
	putHeader(buf[:headerLen], h, payload)
	return buf
}

// putHeader writes the serialised header of the chunk made of h and
// payload into buf, which must be h.EncodedHeaderLen() bytes; the payload
// is only read, for its length and checksum. A deletion bitmap shorter
// than the entry count calls for reads as zero beyond its end.
func putHeader(buf []byte, h *Header, payload []byte) {
	binary.BigEndian.PutUint32(buf[0:4], FormatMagic)
	binary.BigEndian.PutUint16(buf[4:6], FormatVersion)
	copy(buf[6:22], h.ID[:])
	binary.BigEndian.PutUint64(buf[22:30], uint64(h.UpdatedNS))
	binary.BigEndian.PutUint32(buf[30:34], uint32(len(h.Entries)))
	binary.BigEndian.PutUint32(buf[34:38], uint32(h.Deleted.Count()))
	binary.BigEndian.PutUint64(buf[38:46], uint64(len(payload)))
	binary.BigEndian.PutUint32(buf[50:54], crc32.ChecksumIEEE(payload))

	off := fixedHeaderSize
	bitmapLen := (len(h.Entries) + 7) / 8
	clear(buf[off+copy(buf[off:off+bitmapLen], h.Deleted) : off+bitmapLen])
	off += bitmapLen
	for _, e := range h.Entries {
		binary.BigEndian.PutUint16(buf[off:], uint16(len(e.Name)))
		off += 2
		off += copy(buf[off:], e.Name)
		binary.BigEndian.PutUint64(buf[off:], e.Offset)
		binary.BigEndian.PutUint64(buf[off+8:], e.Length)
		off += 16
	}
	binary.BigEndian.PutUint32(buf[46:50], headerCRC(buf))
}

// headerCRC computes the CRC over the header with the two CRC fields zeroed.
func headerCRC(hdr []byte) uint32 {
	c := crc32.Update(0, crc32.IEEETable, hdr[:46])
	c = crc32.Update(c, crc32.IEEETable, zeroCRCFields[:])
	return crc32.Update(c, crc32.IEEETable, hdr[54:])
}

// zeroCRCFields stands in for the two CRC fields; package-level because a
// local passed to crc32.Update escapes.
var zeroCRCFields [8]byte

// ParseHeader decodes only the header of a serialised chunk, verifying the
// header CRC but not reading the payload. Metadata recovery scans use it to
// rebuild key-value pairs cheaply.
func ParseHeader(b []byte) (*Header, int, error) {
	nfiles, err := checkFixedHeader(b)
	if err != nil {
		return nil, 0, err
	}
	h := &Header{}
	copy(h.ID[:], b[6:22])
	h.UpdatedNS = int64(binary.BigEndian.Uint64(b[22:30]))
	h.PayloadLen = binary.BigEndian.Uint64(b[38:46])
	wantCRC := binary.BigEndian.Uint32(b[46:50])

	bitmapLen := (nfiles + 7) / 8
	off := fixedHeaderSize
	if len(b) < off+bitmapLen {
		return nil, 0, ErrTruncated
	}
	h.Deleted = Bitmap(append([]byte(nil), b[off:off+bitmapLen]...))
	off += bitmapLen

	h.Entries = make([]FileEntry, 0, nfiles)
	for i := 0; i < nfiles; i++ {
		if len(b) < off+2 {
			return nil, 0, ErrTruncated
		}
		nameLen := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if len(b) < off+nameLen+16 {
			return nil, 0, ErrTruncated
		}
		e := FileEntry{Name: string(b[off : off+nameLen])}
		off += nameLen
		e.Offset = binary.BigEndian.Uint64(b[off:])
		e.Length = binary.BigEndian.Uint64(b[off+8:])
		off += 16
		h.Entries = append(h.Entries, e)
	}
	if headerCRC(b[:off]) != wantCRC {
		return nil, 0, ErrHeaderCRC
	}
	return h, off, nil
}

// Chunk is a parsed, readable chunk. Accessors return windows into the
// chunk buffer (never copies), so a Chunk is the unit of sharing on the
// zero-copy read path: as long as any returned view is referenced the
// whole payload stays reachable, and views must be treated read-only.
type Chunk struct {
	Header  *Header
	payload []byte
}

// Parse decodes a full serialised chunk and verifies both checksums.
func Parse(b []byte) (*Chunk, error) {
	h, headerLen, err := ParseHeader(b)
	if err != nil {
		return nil, err
	}
	payload, err := verifiedPayload(b, headerLen, h.PayloadLen)
	if err != nil {
		return nil, err
	}
	return &Chunk{Header: h, payload: payload}, nil
}

// Verify checks both checksums of a serialised chunk, as Parse does, and
// returns its payload region without decoding the entry table — for
// readers that cut files out of the payload at offsets they hold
// themselves (a metadata snapshot) and need only the proof that these are
// the bytes that were sealed. It allocates nothing.
func Verify(b []byte) ([]byte, error) {
	nfiles, err := checkFixedHeader(b)
	if err != nil {
		return nil, err
	}
	off := fixedHeaderSize + (nfiles+7)/8
	for range nfiles {
		if len(b) < off+2 {
			return nil, ErrTruncated
		}
		off += 2 + int(binary.BigEndian.Uint16(b[off:])) + 16
	}
	if len(b) < off {
		return nil, ErrTruncated
	}
	if headerCRC(b[:off]) != binary.BigEndian.Uint32(b[46:50]) {
		return nil, ErrHeaderCRC
	}
	return verifiedPayload(b, off, binary.BigEndian.Uint64(b[38:46]))
}

// checkFixedHeader validates the fixed-size part of a serialised header
// and returns the file count it declares.
func checkFixedHeader(b []byte) (nfiles int, err error) {
	if len(b) < fixedHeaderSize {
		return 0, ErrTruncated
	}
	if binary.BigEndian.Uint32(b[0:4]) != FormatMagic {
		return 0, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(b[4:6]); v != FormatVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return int(binary.BigEndian.Uint32(b[30:34])), nil
}

// verifiedPayload returns the payload region behind a header of headerLen
// bytes whose checksum has been verified, after checking the payload's own.
func verifiedPayload(b []byte, headerLen int, payloadLen uint64) ([]byte, error) {
	if uint64(len(b)-headerLen) < payloadLen {
		return nil, ErrTruncated
	}
	payload := b[headerLen : headerLen+int(payloadLen)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[50:54]) {
		return nil, ErrPayloadCRC
	}
	return payload, nil
}

// Payload exposes the raw payload region.
func (c *Chunk) Payload() []byte { return c.payload }

// FileAt returns the content of the i-th file. The returned slice aliases
// the chunk buffer.
func (c *Chunk) FileAt(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Header.Entries) {
		return nil, ErrNoSuchFile
	}
	if c.Header.Deleted.Get(i) {
		return nil, ErrFileDeleted
	}
	e := c.Header.Entries[i]
	if e.Offset+e.Length > uint64(len(c.payload)) {
		return nil, ErrTruncated
	}
	return c.payload[e.Offset : e.Offset+e.Length], nil
}

// Window returns the [off, off+length) sub-slice of the payload region —
// the accessor components holding external offset/length metadata (the
// cache's FileMeta from the snapshot) use to extract a file without a
// copy. The returned view aliases the chunk buffer: read-only, and alive
// exactly as long as the chunk is.
func (c *Chunk) Window(off, length uint64) ([]byte, error) {
	if off+length < off || off+length > uint64(len(c.payload)) {
		return nil, ErrTruncated
	}
	return c.payload[off : off+length], nil
}
