// Package wire implements the binary message framing and RPC transport used
// by every networked component in this repository: the DIESEL server, the
// distributed key-value store, the task-grained distributed cache peers, the
// memcached baseline and the etcd-like registry.
//
// It plays the role Apache Thrift plays in the paper: a typed, multiplexed
// request/response protocol over TCP. The framing is deliberately simple —
// a fixed header followed by a length-prefixed payload — so that encoding
// costs stay negligible next to the data movement the experiments measure.
//
// Frame layout (all integers big-endian) — one layout, no negotiation:
// every binary that speaks it is built from this tree.
//
//	offset  size  field
//	0       4     magic (0xD1E5E1 0x02)
//	4       1     kind (request=1, response=2, error=3, oneway=4)
//	5       8     sequence number (matches responses to requests)
//	13      2     method name length M
//	15      4     payload length N
//	19      8     trace ID (0 = untraced)
//	27      8     sender's span ID (0 when untraced)
//	35      1     flags (bit 0: sampled; 0 when untraced)
//	36      M     method name (UTF-8)
//	36+M    N     payload
//
// The trace fields (see internal/tracing) are always present, so a header
// is one fixed-size read. A frame with a zero trace ID but a non-zero span
// ID or flags, or with unknown flag bits, is rejected: every accepted frame
// re-encodes byte-identically.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Message kinds carried in the frame header.
const (
	KindRequest  = 1 // expects a matching response
	KindResponse = 2 // successful reply
	KindError    = 3 // reply whose payload is an error string
	KindOneway   = 4 // fire-and-forget request
)

// Magic identifies a DIESEL wire frame; mismatches mean the peer is not
// speaking this protocol (or the stream is corrupted).
const Magic uint32 = 0xD1E5E102

// MaxFrame bounds a single frame. Chunks are ≥4MB, and the distributed cache
// ships whole chunks between peers, so the cap is generous but finite to
// protect servers from corrupted length fields.
const MaxFrame = 1 << 30 // 1 GiB

const (
	headerSize  = 4 + 1 + 8 + 2 + 4 + 8 + 8 + 1
	flagSampled = 0x01
)

// Frame is one message on the wire. TraceID/SpanID/Sampled are the trace
// fields: a zero TraceID means "no trace context", and SpanID and Sampled
// are then encoded as zero.
type Frame struct {
	Kind    byte
	Seq     uint64
	Method  string
	Payload []byte

	// Trace context (internal/tracing). TraceID 0 = absent; when set,
	// SpanID is the sender's span, which the receiver's spans adopt as
	// parent so cross-process trees stitch together.
	TraceID uint64
	SpanID  uint64
	Sampled bool

	// lent continues Payload on the wire: the receiver sees Payload+lent as
	// one payload. The sender does not own it — it is a server handler's
	// lent response body (Reply.Lend) or a caller's lent request body
	// (Client.CallLendContext) — so WriteFrame sends it from where it lies
	// instead of staging a copy of it.
	lent []byte

	// body is the pooled backing storage for Payload when the frame came out
	// of ReadFrame; nil for caller-built frames. It stays with the
	// envelope through the pool, so it only ever holds frames
	// small enough to be coalesced on the way out (groupBufSize): most
	// envelopes carry small frames or none (requests being written, owned
	// reads), and a chunk-sized buffer riding each of them would be held
	// for nothing.
	body []byte
	// big backs the Payload of a larger frame instead: a buffer from
	// the pool WriteFrame stages large frames in, which holds as many
	// chunk-sized buffers as are in use at once. Release returns it. A
	// payload the reader's caller takes (readFrame's own) is in neither.
	big *scratch
	// hdrBuf is ReadFrame's header staging area. It lives on the frame (not
	// the stack) because slices passed through the io.Reader interface
	// escape, and a pooled frame makes that escape free. Once the header is
	// parsed it is dead, and a server reuses it as reply.Head's first bytes.
	hdrBuf [headerSize]byte
	// reply is the answer a server handler builds to this request. It rides
	// the pooled request frame so that dispatching allocates nothing for it.
	reply Reply
}

// payloadLen is the payload length the header advertises.
func (f *Frame) payloadLen() int { return len(f.Payload) + len(f.lent) }

// Release returns the frame and its backing storage to the pool for reuse
// by a later ReadFrame. After Release the frame and its Payload (which
// aliases the possibly pooled storage) are invalid; using them races with
// whatever frame is decoded into the recycled buffer next. Releasing is
// optional: a frame that is never released is reclaimed by the GC, so
// callers that let the payload escape simply skip Release and keep owning
// semantics. Release must be called at most once.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	f.Kind = 0
	f.Seq = 0
	f.Method = ""
	f.Payload = nil
	f.TraceID = 0
	f.SpanID = 0
	f.Sampled = false
	f.lent = nil
	f.reply = Reply{}
	if f.big != nil {
		f.big.release()
		f.big = nil
	}
	framePool.Put(f)
}

// ErrBadMagic is returned when an incoming frame does not begin with Magic.
var ErrBadMagic = errors.New("wire: bad magic")

// ErrBadTraceBlock is returned for a frame whose trace fields are
// malformed (a span ID or flags without a trace ID, or unknown flag bits).
// Rejecting these keeps encoding canonical: every accepted frame re-encodes
// byte-identically, which the fuzz round-trip test relies on.
var ErrBadTraceBlock = errors.New("wire: bad trace block")

// ErrFrameTooLarge is returned when a frame advertises a payload larger than
// MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// frameWireLen validates f's bounds and returns its encoded size.
func frameWireLen(f *Frame) (int, error) {
	if len(f.Method) > 0xFFFF {
		return 0, fmt.Errorf("wire: method name too long (%d bytes)", len(f.Method))
	}
	if f.payloadLen() > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return headerSize + len(f.Method) + f.payloadLen(), nil
}

// encodeFrameHeader writes f's header into buf, which must hold at least
// headerSize bytes.
func encodeFrameHeader(buf []byte, f *Frame) {
	var span uint64
	var flags byte
	if f.TraceID != 0 {
		span = f.SpanID
		if f.Sampled {
			flags = flagSampled
		}
	}
	binary.BigEndian.PutUint32(buf[0:4], Magic)
	buf[4] = f.Kind
	binary.BigEndian.PutUint64(buf[5:13], f.Seq)
	binary.BigEndian.PutUint16(buf[13:15], uint16(len(f.Method)))
	binary.BigEndian.PutUint32(buf[15:19], uint32(f.payloadLen()))
	binary.BigEndian.PutUint64(buf[19:27], f.TraceID)
	binary.BigEndian.PutUint64(buf[27:35], span)
	buf[35] = flags
}

// WriteFrame serialises f to w in one write call, which keeps frames atomic
// with respect to concurrent writers that serialise on a mutex above this
// call. Header, method and Payload are staged in a pooled buffer that is
// recycled after the write, so steady-state encoding allocates nothing. A
// lent body goes out of its own memory in the same call when w is a TCP
// connection (one writev); any other writer — a fault-injected connection,
// a pipe — gets it staged behind the rest, so every Write it sees is still
// exactly one whole frame.
func WriteFrame(w io.Writer, f *Frame) error {
	total, err := frameWireLen(f)
	if err != nil {
		return err
	}
	tcp, _ := w.(*net.TCPConn)
	vectored := tcp != nil && len(f.lent) > 0
	staged := total
	if vectored {
		staged -= len(f.lent)
	}
	s := getScratch(staged)
	buf := s.b[:staged]
	encodeFrameHeader(buf, f)
	n := headerSize + copy(buf[headerSize:], f.Method)
	n += copy(buf[n:], f.Payload)
	if vectored {
		s.vec = [2][]byte{buf, f.lent}
		s.bufs = s.vec[:]
		_, err = s.bufs.WriteTo(tcp)
		s.vec, s.bufs = [2][]byte{}, nil // the pool must not pin the lent body
	} else {
		copy(buf[n:], f.lent)
		_, err = w.Write(buf)
	}
	s.release()
	if err == nil && metricsOn() {
		mFramesOut.Inc()
		mBytesOut.Add(uint64(f.payloadLen()))
	}
	return err
}

// writeBuffered encodes f into g.bw piecewise. g.mu is held and bw has
// room for the whole frame (writeFrame checks), so bufio never splits it
// across socket writes.
func (g *groupWriter) writeBuffered(f *Frame) error {
	bw := g.bw
	encodeFrameHeader(g.hdr[:], f)
	if _, err := bw.Write(g.hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(f.Method); err != nil {
		return err
	}
	if _, err := bw.Write(f.Payload); err != nil {
		return err
	}
	if _, err := bw.Write(f.lent); err != nil {
		return err
	}
	if metricsOn() {
		mFramesOut.Inc()
		mBytesOut.Add(uint64(f.payloadLen()))
	}
	return nil
}

// ReadFrame reads one frame from r. It returns io.EOF cleanly when the
// stream ends exactly on a frame boundary.
//
// The returned frame comes from a pool: its Method is interned, and its
// Payload is a pooled buffer filled by a single ReadFull, so the
// steady-state fast path allocates nothing. The frame stays valid
// until the caller invokes Release (optional — an unreleased frame is
// GC-owned, see Release).
func ReadFrame(r io.Reader) (*Frame, error) { return readFrame(r, nil) }

// readFrame is ReadFrame with the payload's home chosen per frame. When
// own is non-nil and reports true for the sequence number and method just
// read (a client's read loop knows by the first who keeps a response, a
// server by the second which handler keeps its request), someone is going
// to keep the payload: it is then read straight into one allocation of
// exactly its size that no pool ever sees — not the frame's pooled buffer,
// whose power-of-two growth would nearly double a chunk — and it stays
// valid after Release, which recycles only the envelope. Payloads that do
// return to a pool keep the geometric growth, so a run of slightly
// different batch-sized frames settles on one buffer.
func readFrame(r io.Reader, own func(seq uint64, method string) bool) (*Frame, error) {
	f := newFrame()
	hdr := f.hdrBuf[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		f.Release()
		return nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		f.Release()
		return nil, ErrBadMagic
	}
	f.Kind = hdr[4]
	f.Seq = binary.BigEndian.Uint64(hdr[5:13])
	mlen := int(binary.BigEndian.Uint16(hdr[13:15]))
	plen := int(binary.BigEndian.Uint32(hdr[15:19]))
	if plen > MaxFrame {
		f.Release()
		return nil, ErrFrameTooLarge
	}
	f.TraceID = binary.BigEndian.Uint64(hdr[19:27])
	f.SpanID = binary.BigEndian.Uint64(hdr[27:35])
	flags := hdr[35]
	if flags&^flagSampled != 0 || (f.TraceID == 0 && (f.SpanID != 0 || flags != 0)) {
		f.Release()
		return nil, ErrBadTraceBlock
	}
	f.Sampled = flags&flagSampled != 0
	// The method is read by itself: it may decide where the payload goes,
	// and it is interned, so its bytes are dead before the payload's arrive
	// and the two can share the frame's buffer.
	if mlen > 0 {
		if cap(f.body) < mlen {
			f.body = make([]byte, nextSize(cap(f.body), mlen))
		}
		if _, err := io.ReadFull(r, f.body[:mlen]); err != nil {
			f.Release()
			return nil, fmt.Errorf("wire: truncated frame body: %w", err)
		}
		f.Method = internMethod(f.body[:mlen])
	}
	var payload []byte
	switch {
	case own != nil && own(f.Seq, f.Method):
		payload = make([]byte, plen)
	case plen > groupBufSize:
		f.big = getScratch(plen)
		payload = f.big.b[:plen]
	default:
		if cap(f.body) < plen {
			f.body = make([]byte, nextSize(cap(f.body), plen))
		}
		payload = f.body[:plen]
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		f.Release()
		return nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	f.Payload = payload
	if metricsOn() {
		mFramesIn.Inc()
		mBytesIn.Add(uint64(plen))
	}
	return f, nil
}
