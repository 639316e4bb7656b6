// Package spill implements the local-SSD tier under an in-RAM cache: an
// append-friendly log of immutable byte payloads keyed by string. Every
// record carries its own key and checksums, so a restarted process
// rebuilds the index by scanning the segments — the way DIESEL rebuilds
// its metadata from self-contained chunks — and rewarms from local disk at
// disk bandwidth instead of refetching over the network.
//
// Config.Dir holds segment files seg-%08d.spill and nothing else. A
// segment is a run of records (little-endian):
//
//	hdrCRC u32 | flags u8 | keyLen u16 | payloadLen u64 | payloadCRC u32 | key | payload
//
// where hdrCRC is the CRC32-C of flags through the end of key.
//
// Writes go to the tail of the active segment; when it reaches the
// segment target size it is sealed and a new one starts. Capacity is
// enforced FIFO over whole segments: when total on-disk bytes exceed the
// budget, the oldest sealed segment is unlinked and the entries in it are
// dropped — the access pattern the log serves (demoted cache entries) is
// itself roughly LRU-ordered, so FIFO retirement approximates LRU without
// any rewrite traffic.
//
// Add writes the payload, then its header, so a header that checks out
// was written after its payload. Remove rewrites the header in place with
// the dead flag set and the CRC recomputed; if that write fails, the
// record's segment retires, so a removed key never comes back. Nothing is
// fsynced: the log is a cache, not a source of truth. Open walks the
// segments oldest first, one pread per header: a header that fails its
// CRC, or whose payload runs past the end of the file, ends that
// segment's scan (a torn tail); dead records are skipped, a later live
// record for a key replaces an earlier one, and a segment left with no
// live record is unlinked. A payload that no longer matches its CRC is
// dropped on its first full read.
//
// Concurrency: an internal mutex guards the index; Add's writes and all
// payload reads (pwrite/pread) run outside it, so demotion writes do not
// block spill reads.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// errNotFound reports a key the log does not hold.
var errNotFound = errors.New("spill: not found")

// errClosed reports an operation on a closed log.
var errClosed = errors.New("spill: closed")

// errCorrupt reports a payload whose checksum no longer matches; the
// entry is dropped as a side effect.
var errCorrupt = errors.New("spill: payload corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// hdrFixed is the length of a record header without its key.
	hdrFixed = 19
	flagDead = byte(1)

	defaultSegmentBytes = int64(64 << 20)
	minSegmentBytes     = int64(64 << 10)
)

// Config parameterises Open.
type Config struct {
	// Dir holds the segment files; created if missing. One Log may own a
	// directory at a time.
	Dir string
	// CapacityBytes bounds total on-disk segment bytes (0 = unlimited).
	// Enforced by FIFO retirement of whole sealed segments, so transient
	// overshoot up to one segment is possible.
	CapacityBytes int64
	// segmentBytes is the target size of one segment file (0 = 64 MiB,
	// clamped to CapacityBytes/4 when a capacity is set). Only the
	// package's tests set it, to seal and retire segments with little data.
	segmentBytes int64
}

// Recovered reports what Open rebuilt from a previous incarnation.
type Recovered struct {
	Entries int   // live entries rewarmed from the segments
	Bytes   int64 // payload bytes those entries cover
	dropped int   // records that ended a segment's scan (torn header or short payload)
}

// Stats is a point-in-time snapshot of the log.
type Stats struct {
	Entries        int   `json:"entries"`
	LiveBytes      int64 `json:"live_bytes"` // payload bytes reachable via the index
	DiskBytes      int64 `json:"disk_bytes"` // segment file bytes on disk (incl. headers and dead space)
	Segments       int   `json:"segments"`
	DroppedEntries uint64
	droppedBytes   uint64
}

type entry struct {
	seg    uint64
	off    int64 // of the payload; its header ends here
	length int64
	crc    uint32
	hits   uint32
}

type segment struct {
	id      uint64
	f       *os.File
	size    int64 // bytes reserved in the file (== file size once writes land)
	live    int64 // payload bytes still reachable via the index
	retired bool
}

// Log is the spill tier. All methods are safe for concurrent use.
type Log struct {
	dir      string
	capacity int64
	segBytes int64

	mu        sync.Mutex
	closed    bool
	entries   map[string]*entry
	segs      map[uint64]*segment
	order     []uint64 // segment ids, oldest first (last may be active)
	active    *segment // the one segment Add appends to; every other is sealed
	nextID    uint64
	liveBytes int64
	diskBytes int64

	dropped  uint64 // entries dropped by segment retirement
	droppedB uint64
	rewarmed Recovered
}

// Open opens (or creates) the spill log in cfg.Dir, rebuilding the index
// from any segments a previous incarnation left behind.
func Open(cfg Config) (*Log, Recovered, error) {
	if cfg.Dir == "" {
		return nil, Recovered{}, errors.New("spill: Dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("spill: %w", err)
	}
	segBytes := cfg.segmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
		if cfg.CapacityBytes > 0 {
			segBytes = min(segBytes, max(cfg.CapacityBytes/4, minSegmentBytes))
		}
	}
	l := &Log{
		dir:      cfg.Dir,
		capacity: cfg.CapacityBytes,
		segBytes: segBytes,
		entries:  make(map[string]*entry),
		segs:     make(map[uint64]*segment),
		nextID:   1,
	}
	if err := l.replay(); err != nil {
		return nil, Recovered{}, err
	}
	l.mu.Lock()
	l.retireOverLocked()
	l.mu.Unlock()
	return l, l.rewarmed, nil
}

func (l *Log) segPath(id uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%08d.spill", id))
}

// replay rebuilds the index by scanning the segment files on disk, oldest
// first. Any inconsistency resolves toward dropping entries — the log is
// a cache.
func (l *Log) replay() error {
	names, err := filepath.Glob(filepath.Join(l.dir, "seg-*.spill"))
	if err != nil {
		return fmt.Errorf("spill: scan segments: %w", err)
	}
	var ids []uint64
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.spill", &id); err == nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	buf := make([]byte, 256)
	for _, id := range ids {
		l.nextID = id + 1
		// Read-write: Remove marks records dead in sealed segments too.
		f, err := os.OpenFile(l.segPath(id), os.O_RDWR, 0)
		if err != nil {
			continue
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			continue
		}
		seg := &segment{id: id, f: f, size: st.Size()}
		l.segs[id] = seg
		l.order = append(l.order, id)
		buf = l.scan(seg, buf)
	}
	for _, e := range l.entries {
		l.segs[e.seg].live += e.length
		l.liveBytes += e.length
	}
	// Without a live record a segment's bytes are garbage: unlink it.
	l.order = slices.DeleteFunc(l.order, func(id uint64) bool {
		seg := l.segs[id]
		if seg.live > 0 {
			l.diskBytes += seg.size
			return false
		}
		seg.f.Close()
		os.Remove(l.segPath(id))
		delete(l.segs, id)
		return true
	})
	l.rewarmed.Entries = len(l.entries)
	l.rewarmed.Bytes = l.liveBytes
	return nil
}

// scan indexes seg's records in file order, one pread per
// header (two for a key longer than buf holds), and returns the read
// buffer, grown if it had to be. A header that fails its CRC, or whose
// payload runs past the end of the file, ends the scan: that is where the
// previous incarnation's writes stopped.
func (l *Log) scan(seg *segment, buf []byte) []byte {
	for off := int64(0); off < seg.size; {
		// A short read, at EOF or on an I/O error, is judged by n alone: a
		// header it cuts fails the checks below and ends the scan.
		n, _ := seg.f.ReadAt(buf, off)
		if n >= hdrFixed && keyEnd(buf) > len(buf) {
			buf = make([]byte, keyEnd(buf))
			n, _ = seg.f.ReadAt(buf, off)
		}
		h := buf[:n]
		if n < hdrFixed || keyEnd(h) > n || crc32.Checksum(h[4:keyEnd(h)], castagnoli) != binary.LittleEndian.Uint32(h) {
			l.rewarmed.dropped++
			return buf
		}
		h = h[:keyEnd(h)]
		length := int64(binary.LittleEndian.Uint64(h[7:]))
		if length < 0 || length > seg.size-off-int64(len(h)) {
			l.rewarmed.dropped++
			return buf
		}
		// A dead record says nothing about the key's other records: the
		// loser of two racing Adds kills its copy, wherever it landed.
		if h[4]&flagDead == 0 {
			l.entries[string(h[hdrFixed:])] = &entry{seg: seg.id, off: off + int64(len(h)), length: length, crc: binary.LittleEndian.Uint32(h[15:])}
		}
		off += int64(len(h)) + length
	}
	return buf
}

// keyEnd is where the key of the record header at the start of h ends.
func keyEnd(h []byte) int { return hdrFixed + int(binary.LittleEndian.Uint16(h[5:])) }

// header encodes the record header of key's entry e.
func header(flags byte, key string, e *entry) []byte {
	h := make([]byte, hdrFixed+len(key))
	h[4] = flags
	binary.LittleEndian.PutUint16(h[5:], uint16(len(key)))
	binary.LittleEndian.PutUint64(h[7:], uint64(e.length))
	binary.LittleEndian.PutUint32(h[15:], e.crc)
	copy(h[hdrFixed:], key)
	binary.LittleEndian.PutUint32(h, crc32.Checksum(h[4:], castagnoli))
	return h
}

// killLocked rewrites the header of key's record e in seg with the dead
// flag set, so no later Open indexes it. If that write fails the segment
// retires instead, sealed first if it is the active one: the key must
// not come back.
func (l *Log) killLocked(seg *segment, key string, e *entry) {
	h := header(flagDead, key, e)
	if _, err := seg.f.WriteAt(h, e.off-int64(len(h))); err != nil {
		if seg == l.active {
			l.active = nil
		}
		l.retireLocked(seg)
	}
}

// reserveLocked claims length bytes at the tail of the active segment,
// rotating first when the active segment is full (or absent).
func (l *Log) reserveLocked(length int64) (*segment, int64, error) {
	if l.active == nil || (l.active.size > 0 && l.active.size+length > l.segBytes) {
		id := l.nextID
		l.nextID++
		f, err := os.OpenFile(l.segPath(id), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
		if err != nil {
			return nil, 0, fmt.Errorf("spill: create segment: %w", err)
		}
		l.active = &segment{id: id, f: f}
		l.segs[id] = l.active
		l.order = append(l.order, id)
	}
	seg := l.active
	off := seg.size
	seg.size += length
	l.diskBytes += length
	return seg, off, nil
}

// retireOverLocked enforces the disk budget by unlinking the oldest
// segments (never the active one) until within capacity, dropping the
// index entries that pointed into them.
func (l *Log) retireOverLocked() {
	if l.capacity <= 0 {
		return
	}
	for l.diskBytes > l.capacity {
		var victim *segment
		for _, id := range l.order {
			if s := l.segs[id]; s != l.active {
				victim = s
				break
			}
		}
		if victim == nil {
			return
		}
		l.retireLocked(victim)
	}
}

func (l *Log) retireLocked(victim *segment) {
	dropped, droppedBytes := 0, int64(0)
	for key, e := range l.entries {
		if e.seg == victim.id {
			delete(l.entries, key)
			dropped++
			droppedBytes += e.length
		}
	}
	victim.retired = true
	victim.f.Close()
	os.Remove(l.segPath(victim.id))
	delete(l.segs, victim.id)
	l.order = slices.DeleteFunc(l.order, func(id uint64) bool { return id == victim.id })
	l.diskBytes -= victim.size
	l.liveBytes -= droppedBytes
	l.dropped += uint64(dropped)
	l.droppedB += uint64(droppedBytes)
}

// Add stores payload under key. A key already present is left untouched
// (payloads are immutable): Add reports written=false and writes nothing,
// which makes re-demotion of a previously spilled entry free.
func (l *Log) Add(key string, payload []byte) (written bool, err error) {
	if len(key) > math.MaxUint16 {
		return false, errors.New("spill: key longer than 64 KiB")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false, errClosed
	}
	if _, dup := l.entries[key]; dup {
		l.mu.Unlock()
		return false, nil
	}
	hlen := int64(hdrFixed + len(key))
	seg, off, err := l.reserveLocked(hlen + int64(len(payload)))
	if err != nil {
		l.mu.Unlock()
		return false, err
	}
	f := seg.f
	l.mu.Unlock()

	// Both writes happen outside the lock: a concurrent spill read never
	// waits behind a demotion's disk write. The payload goes first, so a
	// crash between the two leaves a header that fails its CRC, never one
	// that vouches for bytes that did not land.
	e := &entry{seg: seg.id, off: off + hlen, length: int64(len(payload)), crc: crc32.Checksum(payload, castagnoli)}
	if _, err := f.WriteAt(payload, e.off); err != nil {
		return false, fmt.Errorf("spill: write segment: %w", err)
	}
	if _, err := f.WriteAt(header(0, key, e), off); err != nil {
		return false, fmt.Errorf("spill: write segment: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false, errClosed
	}
	if seg.retired {
		// Capacity retirement raced with our write; the bytes are gone.
		return false, nil
	}
	if _, dup := l.entries[key]; dup {
		// A concurrent Add of the same key won; this copy must not outlive
		// a later Remove of the key into the next Open.
		l.killLocked(seg, key, e)
		return false, nil
	}
	l.entries[key] = e
	seg.live += e.length
	l.liveBytes += e.length
	l.retireOverLocked()
	return true, nil
}

// Get reads key's whole payload into a fresh buffer, verifying its
// checksum. A corrupt payload is dropped and reported as an error.
// Get does not count as a hit for promotion purposes — it IS the
// promotion read.
func (l *Log) Get(key string) ([]byte, error) {
	l.mu.Lock()
	e, ok := l.entries[key]
	if !ok || l.closed {
		l.mu.Unlock()
		if l.closed {
			return nil, errClosed
		}
		return nil, errNotFound
	}
	seg := l.segs[e.seg]
	f, off, n, want := seg.f, e.off, e.length, e.crc
	l.mu.Unlock()

	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("spill: read segment: %w", err)
	}
	if crc32.Checksum(buf, castagnoli) != want {
		l.Remove(key)
		return nil, errCorrupt
	}
	return buf, nil
}

// ReadAt reads length bytes at offset off inside key's payload into a
// fresh buffer, and returns the entry's hit count after this read. It is
// the file-granular fast path: one allocation, no checksum (the region
// is a window, not the whole payload — full verification happens on
// promotion via Get and on every rewarmed read's first promotion).
func (l *Log) ReadAt(key string, off, length int64) (data []byte, hits int, err error) {
	l.mu.Lock()
	e, ok := l.entries[key]
	if !ok || l.closed {
		l.mu.Unlock()
		if l.closed {
			return nil, 0, errClosed
		}
		return nil, 0, errNotFound
	}
	if off < 0 || length < 0 || off+length > e.length {
		l.mu.Unlock()
		return nil, 0, fmt.Errorf("spill: range [%d,%d) outside payload %d", off, off+length, e.length)
	}
	e.hits++
	hits = int(e.hits)
	seg := l.segs[e.seg]
	f, base := seg.f, e.off
	l.mu.Unlock()

	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, base+off); err != nil {
		return nil, 0, fmt.Errorf("spill: read segment: %w", err)
	}
	return buf, hits, nil
}

// Size reports key's payload length, if present.
func (l *Log) Size(key string) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[key]
	if !ok {
		return 0, false
	}
	return e.length, true
}

// Remove drops key from the log and marks its record dead on disk, so a
// restart does not resurrect it — required when the caller overwrites or
// deletes the underlying object. Disk space is reclaimed when the segment
// retires; a sealed segment whose last entry goes is unlinked immediately.
func (l *Log) Remove(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	e, ok := l.entries[key]
	if !ok {
		return false
	}
	delete(l.entries, key)
	l.liveBytes -= e.length
	seg := l.segs[e.seg]
	seg.live -= e.length
	l.killLocked(seg, key, e)
	if !seg.retired && seg.live <= 0 && seg != l.active {
		l.retireLocked(seg)
	}
	return true
}

// Each calls fn for every live entry. fn runs under the log's lock and
// must not call back into the Log.
func (l *Log) Each(fn func(key string, size int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, e := range l.entries {
		fn(key, e.length)
	}
}

// Len reports the number of live entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Entries:        len(l.entries),
		LiveBytes:      l.liveBytes,
		DiskBytes:      l.diskBytes,
		Segments:       len(l.segs),
		DroppedEntries: l.dropped,
		droppedBytes:   l.droppedB,
	}
}

// Close closes the segment handles. The segments stay behind for the
// next Open to rewarm from.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for _, s := range l.segs {
		s.f.Close()
	}
	return nil
}
