// Package spill implements the local-SSD tier under an in-RAM cache: an
// append-friendly log of immutable byte payloads keyed by string, with a
// crash-safe manifest so a restarted process rewarms from local disk at
// disk bandwidth instead of refetching over the network.
//
// Layout on disk (all inside Config.Dir):
//
//	seg-%08d.spill   append-only segment files holding raw payloads
//	MANIFEST         append-only index: key → (segment, offset, length, CRC)
//
// Writes go to the tail of the active segment; when it reaches the
// segment target size it is sealed and a new one starts. Capacity is
// enforced FIFO over whole segments: when total on-disk bytes exceed the
// budget, the oldest sealed segment is unlinked and the entries in it are
// dropped — the access pattern the log serves (demoted cache entries) is
// itself roughly LRU-ordered, so FIFO retirement approximates LRU without
// any rewrite traffic.
//
// The manifest is append-only with a per-record CRC. Nothing is fsynced:
// the log is a cache, not a source of truth, so a torn tail after a crash
// is detected by the record CRC and cut off, and a payload whose segment
// write never completed fails its payload CRC on first full read. Replay
// additionally drops records whose segment file is missing or too short.
// The manifest is compacted (rewritten from the live index via a temp
// file + rename) on open and whenever dead records dominate.
//
// Concurrency: an internal mutex guards the index and manifest; payload
// reads and writes (pread/pwrite) run outside it, so demotion writes do
// not block spill reads.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
	manifestName    = "MANIFEST"
	manifestMagic   = uint32(0x4453504c) // "DSPL"
	manifestVersion = uint32(1)
	headerLen       = 8

	opAdd = byte(1)
	opDel = byte(2)

	defaultSegmentBytes = int64(64 << 20)
	minSegmentBytes     = int64(64 << 10)

	// Compaction fires when dead manifest records dominate live ones.
	compactMinRecords = 1024
	compactDeadFactor = 4
)

// Config parameterises Open.
type Config struct {
	// Dir holds the segment files and manifest; created if missing. One
	// Log may own a directory at a time.
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

// Recovered reports what Open replayed from a previous incarnation.
type Recovered struct {
	Entries   int   // live entries rewarmed from the manifest
	Bytes     int64 // payload bytes those entries cover
	dropped   int   // manifest records dropped (missing/short segments)
	truncated bool  // the manifest had a torn tail that was cut off
}

// Stats is a point-in-time snapshot of the log.
type Stats struct {
	Entries         int   `json:"entries"`
	LiveBytes       int64 `json:"live_bytes"` // payload bytes reachable via the index
	DiskBytes       int64 `json:"disk_bytes"` // segment file bytes on disk (incl. dead space)
	Segments        int   `json:"segments"`
	ManifestRecords int   `json:"manifest_records"`
	DroppedEntries  uint64
	droppedBytes    uint64
}

type entry struct {
	seg    uint64
	off    int64
	length int64
	crc    uint32
	hits   uint32
}

type segment struct {
	id      uint64
	f       *os.File
	size    int64 // bytes reserved in the file (== file size once writes land)
	live    int64 // payload bytes still reachable via the index
	sealed  bool
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
	active    *segment
	nextID    uint64
	liveBytes int64
	diskBytes int64

	mf       *os.File // manifest, positioned at its end
	records  int      // records in the manifest file
	recBuf   []byte   // scratch for record encoding, reused under mu
	mfErr    error    // first manifest append failure (rewarm degraded, log still serves)
	dropped  uint64   // entries dropped by segment retirement
	droppedB uint64
	rewarmed Recovered
}

// Open opens (or creates) the spill log in cfg.Dir, replaying any
// manifest a previous incarnation left behind.
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

func (l *Log) manifestPath() string { return filepath.Join(l.dir, manifestName) }

func (l *Log) segPath(id uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%08d.spill", id))
}

// replay rebuilds the index from the manifest and the segment files on
// disk, then rewrites a compacted manifest. Any inconsistency resolves
// toward dropping entries — the log is a cache.
func (l *Log) replay() error {
	type rec struct {
		seg    uint64
		off    int64
		length int64
		crc    uint32
	}
	pending := make(map[string]rec)
	data, err := os.ReadFile(l.manifestPath())
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory (or manifest lost): any orphaned segment files
		// are unreadable without an index; remove them below.
	case err != nil:
		return fmt.Errorf("spill: read manifest: %w", err)
	default:
		pos := 0
		if len(data) >= headerLen &&
			binary.LittleEndian.Uint32(data) == manifestMagic &&
			binary.LittleEndian.Uint32(data[4:]) == manifestVersion {
			pos = headerLen
		} else {
			// Unknown header: treat as empty (version bump or garbage).
			l.rewarmed.truncated = len(data) > 0
			pos = len(data)
		}
		for pos < len(data) {
			r, key, n, ok := parseRecord(data[pos:])
			if !ok {
				l.rewarmed.truncated = true
				break
			}
			pos += n
			switch r.op {
			case opAdd:
				pending[key] = rec{seg: r.seg, off: r.off, length: r.length, crc: r.crc}
			case opDel:
				delete(pending, key)
			}
		}
	}

	// Inventory the segment files actually on disk.
	names, err := filepath.Glob(filepath.Join(l.dir, "seg-*.spill"))
	if err != nil {
		return fmt.Errorf("spill: scan segments: %w", err)
	}
	sizes := make(map[uint64]int64)
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.spill", &id); err != nil {
			continue
		}
		st, err := os.Stat(name)
		if err != nil {
			continue
		}
		sizes[id] = st.Size()
		if id >= l.nextID {
			l.nextID = id + 1
		}
	}

	// Keep entries whose bytes verifiably exist; count the rest as dropped.
	live := make(map[uint64]int64)
	for key, r := range pending {
		size, ok := sizes[r.seg]
		if !ok || r.off < 0 || r.length < 0 || r.off+r.length > size {
			l.rewarmed.dropped++
			continue
		}
		l.entries[key] = &entry{seg: r.seg, off: r.off, length: r.length, crc: r.crc}
		live[r.seg] += r.length
		l.liveBytes += r.length
	}

	// Open segments with live data read-only (they are sealed forever);
	// unlink the rest — without index entries their bytes are garbage.
	for id, size := range sizes {
		if live[id] == 0 {
			os.Remove(l.segPath(id))
			continue
		}
		f, err := os.Open(l.segPath(id))
		if err != nil {
			// Lost between stat and open: drop its entries.
			for key, e := range l.entries {
				if e.seg == id {
					delete(l.entries, key)
					l.liveBytes -= e.length
					l.rewarmed.dropped++
				}
			}
			continue
		}
		l.segs[id] = &segment{id: id, f: f, size: size, live: live[id], sealed: true}
		l.diskBytes += size
	}
	l.order = make([]uint64, 0, len(l.segs))
	for id := range l.segs {
		l.order = append(l.order, id)
	}
	sort.Slice(l.order, func(i, j int) bool { return l.order[i] < l.order[j] })

	l.rewarmed.Entries = len(l.entries)
	l.rewarmed.Bytes = l.liveBytes

	// Start from a compacted manifest: replay is the natural moment, and
	// it also truncates any torn tail for good.
	if err := l.compactLocked(); err != nil {
		l.closeFilesLocked()
		return err
	}
	return nil
}

type rawRec struct {
	op     byte
	seg    uint64
	off    int64
	length int64
	crc    uint32
}

// Record layout (little-endian), CRC-terminated so replay can detect a
// torn tail:
//
//	op u8 | keyLen u16 | key | [seg u64 | off u64 | len u64 | payloadCRC u32] | recCRC u32
//
// The bracketed fields are present only for opAdd.
func parseRecord(b []byte) (r rawRec, key string, n int, ok bool) {
	if len(b) < 3 {
		return r, "", 0, false
	}
	r.op = b[0]
	kl := int(binary.LittleEndian.Uint16(b[1:]))
	n = 3 + kl
	switch r.op {
	case opAdd:
		n += 32 // seg u64 + off u64 + len u64 + payloadCRC u32 + recCRC u32
	case opDel:
		n += 4 // recCRC u32
	default:
		return r, "", 0, false
	}
	if len(b) < n {
		return r, "", 0, false
	}
	sum := crc32.Checksum(b[:n-4], castagnoli)
	if sum != binary.LittleEndian.Uint32(b[n-4:]) {
		return r, "", 0, false
	}
	key = string(b[3 : 3+kl])
	if r.op == opAdd {
		p := b[3+kl:]
		r.seg = binary.LittleEndian.Uint64(p)
		r.off = int64(binary.LittleEndian.Uint64(p[8:]))
		r.length = int64(binary.LittleEndian.Uint64(p[16:]))
		r.crc = binary.LittleEndian.Uint32(p[24:])
	}
	return r, key, n, true
}

// appendRecordLocked appends one manifest record. A failed append leaves
// the in-memory index authoritative (the log keeps serving) and is
// remembered in mfErr; the next successful compaction clears it.
func (l *Log) appendRecordLocked(op byte, key string, e *entry) {
	if l.mf == nil {
		return
	}
	b := l.recBuf[:0]
	b = append(b, op)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = append(b, key...)
	if op == opAdd {
		b = binary.LittleEndian.AppendUint64(b, e.seg)
		b = binary.LittleEndian.AppendUint64(b, uint64(e.off))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.length))
		b = binary.LittleEndian.AppendUint32(b, e.crc)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	l.recBuf = b[:0]
	if _, err := l.mf.Write(b); err != nil {
		if l.mfErr == nil {
			l.mfErr = err
		}
		return
	}
	l.records++
}

// compactLocked rewrites the manifest from the live index via temp file +
// rename, so a crash mid-compaction leaves the old manifest intact.
func (l *Log) compactLocked() error {
	tmp := l.manifestPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("spill: compact manifest: %w", err)
	}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[:], manifestMagic)
	binary.LittleEndian.PutUint32(hdr[4:], manifestVersion)
	buf := make([]byte, 0, 4096)
	buf = append(buf, hdr[:]...)
	for key, e := range l.entries {
		rec := make([]byte, 0, 31+len(key))
		rec = append(rec, opAdd)
		rec = binary.LittleEndian.AppendUint16(rec, uint16(len(key)))
		rec = append(rec, key...)
		rec = binary.LittleEndian.AppendUint64(rec, e.seg)
		rec = binary.LittleEndian.AppendUint64(rec, uint64(e.off))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(e.length))
		rec = binary.LittleEndian.AppendUint32(rec, e.crc)
		rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
		buf = append(buf, rec...)
		if len(buf) >= 1<<16 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				os.Remove(tmp)
				return fmt.Errorf("spill: compact manifest: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("spill: compact manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("spill: compact manifest: %w", err)
	}
	if err := os.Rename(tmp, l.manifestPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("spill: compact manifest: %w", err)
	}
	if l.mf != nil {
		l.mf.Close()
	}
	mf, err := os.OpenFile(l.manifestPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("spill: reopen manifest: %w", err)
	}
	l.mf = mf
	l.records = len(l.entries)
	l.mfErr = nil
	return nil
}

func (l *Log) maybeCompactLocked() {
	if l.records >= compactMinRecords && l.records > compactDeadFactor*len(l.entries) {
		l.compactLocked() // best-effort; a failure keeps the old manifest
	}
}

// reserveLocked claims length bytes at the tail of the active segment,
// rotating first when the active segment is full (or absent).
func (l *Log) reserveLocked(length int64) (*segment, int64, error) {
	if l.active == nil || (l.active.size > 0 && l.active.size+length > l.segBytes) {
		if l.active != nil {
			l.active.sealed = true
		}
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
	for i, id := range l.order {
		if id == victim.id {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	l.diskBytes -= victim.size
	l.liveBytes -= droppedBytes
	l.dropped += uint64(dropped)
	l.droppedB += uint64(droppedBytes)
	// The dropped entries' add-records are now dead weight in the
	// manifest; replay drops them anyway (segment file gone), so no del
	// records are written — compaction trims them eventually.
	l.maybeCompactLocked()
}

// Add stores payload under key. A key already present is left untouched
// (payloads are immutable): Add reports written=false and writes nothing,
// which makes re-demotion of a previously spilled entry free.
func (l *Log) Add(key string, payload []byte) (written bool, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false, errClosed
	}
	if _, dup := l.entries[key]; dup {
		l.mu.Unlock()
		return false, nil
	}
	seg, off, err := l.reserveLocked(int64(len(payload)))
	if err != nil {
		l.mu.Unlock()
		return false, err
	}
	f := seg.f
	l.mu.Unlock()

	// The payload write happens outside the lock: a concurrent spill read
	// never waits behind a demotion's disk write.
	if _, err := f.WriteAt(payload, off); err != nil {
		return false, fmt.Errorf("spill: write segment: %w", err)
	}
	crc := crc32.Checksum(payload, castagnoli)

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
		return false, nil // a concurrent Add of the same key won
	}
	e := &entry{seg: seg.id, off: off, length: int64(len(payload)), crc: crc}
	l.entries[key] = e
	seg.live += e.length
	l.liveBytes += e.length
	l.appendRecordLocked(opAdd, key, e)
	l.retireOverLocked()
	l.maybeCompactLocked()
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

// Remove drops key from the log (persisted, so a restart does not
// resurrect it — required when the caller overwrites or deletes the
// underlying object). Disk space is reclaimed when the segment retires;
// a sealed segment whose last entry goes is unlinked immediately.
func (l *Log) Remove(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.removeLocked(key)
}

func (l *Log) removeLocked(key string) bool {
	if l.closed {
		return false
	}
	e, ok := l.entries[key]
	if !ok {
		return false
	}
	delete(l.entries, key)
	l.liveBytes -= e.length
	l.appendRecordLocked(opDel, key, nil)
	if seg, ok := l.segs[e.seg]; ok {
		seg.live -= e.length
		if seg.live <= 0 && seg.sealed {
			l.retireLocked(seg)
		}
	}
	l.maybeCompactLocked()
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
		Entries:         len(l.entries),
		LiveBytes:       l.liveBytes,
		DiskBytes:       l.diskBytes,
		Segments:        len(l.segs),
		ManifestRecords: l.records,
		DroppedEntries:  l.dropped,
		droppedBytes:    l.droppedB,
	}
}

// Close closes the manifest and segment handles. The on-disk state stays
// behind for the next Open to rewarm from.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.closeFilesLocked()
	return nil
}

func (l *Log) closeFilesLocked() {
	if l.mf != nil {
		l.mf.Close()
		l.mf = nil
	}
	for _, s := range l.segs {
		s.f.Close()
	}
}
