// Package chunk implements DIESEL's on-disk data chunk format and chunk
// identifiers.
//
// Small files are packed into self-contained chunks of at least 4 MB
// (Figure 5a of the paper): a header carrying all file metadata, a deletion
// bitmap, a file entry table, and the concatenated file payloads. Because
// the header alone is enough to rebuild every key-value metadata pair, a
// DIESEL server can recover a lost metadata database by scanning chunks.
//
// Chunk IDs are 16 bytes (Table 1): a 4-byte creation timestamp in seconds,
// a 6-byte machine identifier, a 3-byte process ID and a 3-byte per-process
// counter. Sorting IDs lexicographically therefore sorts chunks by write
// time, which is what the recovery scan relies on.
package chunk

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
)

// IDSize is the length of a binary chunk ID.
const IDSize = 16

// ID is a 16-byte chunk identifier laid out per Table 1 of the paper:
//
//	bytes 0–3   creation timestamp, seconds, big-endian
//	bytes 4–9   machine identifier (MAC address or random)
//	bytes 10–12 process ID, low 24 bits
//	bytes 13–15 per-second counter, 24 bits
type ID [IDSize]byte

// sortAlphabet is an order-preserving base64 alphabet: unlike RFC 4648,
// its characters are in ascending ASCII order, so the lexicographic order
// of encoded strings equals the order of the underlying 16-byte IDs. The
// paper stores chunks under printable IDs and sorts them by name during
// recovery; order preservation makes that sort correct without decoding.
const sortAlphabet = "-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"

// EncodedIDLen is the length of an ID rendered by ID.String.
const EncodedIDLen = (IDSize*8 + 5) / 6 // 22

var decodeTable = func() [256]int8 {
	var t [256]int8
	for i := range t {
		t[i] = -1
	}
	for i := 0; i < 64; i++ {
		t[sortAlphabet[i]] = int8(i)
	}
	return t
}()

// Timestamp returns the chunk creation time as Unix seconds.
func (id ID) Timestamp() uint32 { return binary.BigEndian.Uint32(id[0:4]) }

// String renders the ID as 22 printable characters using an
// order-preserving base64 alphabet (see sortAlphabet).
func (id ID) String() string {
	var out [EncodedIDLen]byte
	// Process 16 bytes = 128 bits as 21 full 6-bit groups + 2 trailing bits.
	var acc uint32
	bits := 0
	j := 0
	for _, b := range id {
		acc = acc<<8 | uint32(b)
		bits += 8
		for bits >= 6 {
			bits -= 6
			out[j] = sortAlphabet[(acc>>bits)&0x3F]
			j++
		}
	}
	if bits > 0 {
		out[j] = sortAlphabet[(acc<<(6-bits))&0x3F]
		j++
	}
	return string(out[:j])
}

// ErrBadID is returned by ParseID for malformed encoded IDs.
var ErrBadID = errors.New("chunk: malformed chunk ID")

// ParseID decodes a string produced by ID.String.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != EncodedIDLen {
		return id, fmt.Errorf("%w: length %d, want %d", ErrBadID, len(s), EncodedIDLen)
	}
	var acc uint32
	bits := 0
	j := 0
	for i := 0; i < len(s); i++ {
		v := decodeTable[s[i]]
		if v < 0 {
			return id, fmt.Errorf("%w: invalid character %q", ErrBadID, s[i])
		}
		acc = acc<<6 | uint32(v)
		bits += 6
		if bits >= 8 {
			bits -= 8
			if j < IDSize {
				id[j] = byte(acc >> bits)
				j++
			}
		}
	}
	if j != IDSize {
		return id, fmt.Errorf("%w: decoded %d bytes", ErrBadID, j)
	}
	// The final character carries only 2 payload bits; reject
	// non-canonical encodings whose padding bits are set, so that String
	// and ParseID are exact inverses and string comparisons of IDs remain
	// unambiguous.
	if acc&((1<<bits)-1) != 0 {
		return id, fmt.Errorf("%w: non-canonical trailing bits", ErrBadID)
	}
	return id, nil
}

// Less reports whether id sorts before other, i.e. was written earlier
// (or by a lower machine/pid/counter within the same second).
func (id ID) Less(other ID) bool {
	for i := range id {
		if id[i] != other[i] {
			return id[i] < other[i]
		}
	}
	return false
}

// IDGenerator mints unique, time-ordered chunk IDs for one process. It can
// generate 2^24 (≈16.7 million) unique IDs per second, as in the paper.
type IDGenerator struct {
	machine [6]byte
	pid     uint32

	mu      sync.Mutex
	lastSec uint32
	counter uint32
	clock   func() uint32 // Unix seconds; injectable for tests
}

// NewIDGenerator builds a generator using the first non-loopback interface's
// MAC address as the machine identifier, falling back to random bytes, and
// the current process ID.
func NewIDGenerator(now func() uint32) *IDGenerator {
	g := &IDGenerator{
		pid:   uint32(os.Getpid()) & 0xFFFFFF,
		clock: now,
	}
	g.machine = machineID()
	return g
}

// NewIDGeneratorAt builds a generator with explicit machine and pid fields,
// used by tests and by the cluster simulator to model many machines inside
// one process.
func NewIDGeneratorAt(machine [6]byte, pid uint32, now func() uint32) *IDGenerator {
	return &IDGenerator{machine: machine, pid: pid & 0xFFFFFF, clock: now}
}

func machineID() [6]byte {
	var m [6]byte
	ifs, err := net.Interfaces()
	if err == nil {
		for _, iface := range ifs {
			if iface.Flags&net.FlagLoopback != 0 || len(iface.HardwareAddr) < 6 {
				continue
			}
			copy(m[:], iface.HardwareAddr[:6])
			return m
		}
	}
	rand.Read(m[:])
	return m
}

// Next returns a fresh ID. IDs from one generator are strictly increasing;
// when the 24-bit counter would overflow within one second, Next advances
// the timestamp instead of blocking, preserving ordering at a small cost in
// timestamp accuracy.
func (g *IDGenerator) Next() ID {
	g.mu.Lock()
	sec := g.clock()
	if sec < g.lastSec {
		sec = g.lastSec // clock went backwards; never emit out-of-order IDs
	}
	if sec == g.lastSec {
		g.counter++
		if g.counter > 0xFFFFFF {
			sec++
			g.counter = 0
		}
	} else {
		g.counter = 0
	}
	g.lastSec = sec
	ctr := g.counter
	g.mu.Unlock()

	var id ID
	binary.BigEndian.PutUint32(id[0:4], sec)
	copy(id[4:10], g.machine[:])
	id[10] = byte(g.pid >> 16)
	id[11] = byte(g.pid >> 8)
	id[12] = byte(g.pid)
	id[13] = byte(ctr >> 16)
	id[14] = byte(ctr >> 8)
	id[15] = byte(ctr)
	return id
}
