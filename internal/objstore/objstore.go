// Package objstore provides the object storage layer DIESEL servers keep
// data chunks in — the role Ceph/Lustre plays under the DIESEL server in
// Figure 2.
//
// Four implementations share one interface:
//
//   - Memory: map-backed, for tests and simulations.
//   - Disk: one object per file under a root directory, for real runs.
//   - Throttled: wraps another store with modeled latency and bandwidth, so
//     examples can show HDD-versus-SSD behaviour in real time.
//   - Tiered: a fast store (SSD) caching a slow store (HDD) with LRU
//     eviction — the DIESEL server-side cache of Figure 4.
package objstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound is returned when an object does not exist.
var ErrNotFound = errors.New("objstore: object not found")

// ErrExists is returned by a Put of a key that is taken.
var ErrExists = errors.New("objstore: object already exists")

// Store is a flat object store keyed by string. Keys are chunk IDs (22
// printable characters) possibly namespaced by dataset, e.g.
// "imagenet/0G2xk…". List returns keys in ascending order, which for chunk
// IDs is write-time order — the property metadata recovery scans rely on.
type Store interface {
	// Put creates the object key holding data. It fails with ErrExists,
	// storing nothing, when the key is taken — an object's bytes never
	// change while it exists, and a key is free again only once Delete
	// has returned. The store takes ownership of data — an in-memory
	// store keeps the slice itself instead of copying it — so the caller
	// must not modify it afterwards.
	Put(key string, data []byte) error
	// Get returns the full object.
	Get(key string) ([]byte, error)
	// GetRange returns n bytes starting at off. n < 0 means "to the end".
	GetRange(key string, off, n int64) ([]byte, error)
	// Delete removes the object. Deleting a missing key is not an error.
	Delete(key string) error
	// List returns all keys with the given prefix, sorted ascending.
	List(prefix string) ([]string, error)
	// Size returns the object's length in bytes.
	Size(key string) (int64, error)
}

// --- Memory ---

// Memory is an in-memory Store, safe for concurrent use.
type Memory struct {
	mu   sync.RWMutex
	data map[string][]byte

	// Counters for experiments: number of operations and bytes moved.
	Ops Counters
}

// Counters tallies store traffic; all fields are protected by the owning
// store's mutex and read via Snapshot.
type Counters struct {
	Puts, Gets, Deletes, Lists uint64
	BytesIn, BytesOut          uint64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{data: make(map[string][]byte)}
}

// Put implements Store by keeping data itself: a stored chunk is the
// allocation it arrived in.
func (m *Memory) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[key]; ok {
		return fmt.Errorf("%w: %q", ErrExists, key)
	}
	m.data[key] = data
	m.Ops.Puts++
	m.Ops.BytesIn += uint64(len(data))
	return nil
}

// Get implements Store.
func (m *Memory) Get(key string) ([]byte, error) { return owned(m.GetPooled(key)) }

// GetRange implements Store.
func (m *Memory) GetRange(key string, off, n int64) ([]byte, error) {
	return owned(m.GetRangePooled(key, off, n))
}

// clampRange validates off and clamps n against an object of the given
// size, returning the half-open byte range to read.
func clampRange(size, off, n int64) (start, end int64, err error) {
	if off < 0 || off > size {
		return 0, 0, fmt.Errorf("objstore: offset %d out of range [0,%d]", off, size)
	}
	end = size
	if n >= 0 && off+n < end {
		end = off + n
	}
	return off, end, nil
}

// GetPooled implements PooledReader by lending the stored slice itself:
// stored slices are immutable once inserted (Put takes ownership of its
// argument and never touches a key that is taken; Delete only drops the
// map entry), so the bytes a caller holds stay what they were whatever
// happens to the key, and there is nothing to hand back.
func (m *Memory) GetPooled(key string) ([]byte, func(), error) {
	m.mu.Lock()
	b, ok := m.data[key]
	m.Ops.Gets++
	m.Ops.BytesOut += uint64(len(b))
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return b, noopRelease, nil
}

// GetRangePooled implements PooledReader; the range is a window into the
// stored slice (see GetPooled).
func (m *Memory) GetRangePooled(key string, off, n int64) ([]byte, func(), error) {
	m.mu.Lock()
	b, ok := m.data[key]
	m.Ops.Gets++
	m.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	start, end, err := clampRange(int64(len(b)), off, n)
	if err != nil {
		return nil, nil, err
	}
	return b[start:end:end], noopRelease, nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	delete(m.data, key)
	m.Ops.Deletes++
	m.mu.Unlock()
	return nil
}

// List implements Store.
func (m *Memory) List(prefix string) ([]string, error) {
	m.mu.Lock()
	out := make([]string, 0, len(m.data))
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	m.Ops.Lists++
	m.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// Size implements Store.
func (m *Memory) Size(key string) (int64, error) {
	m.mu.RLock()
	b, ok := m.data[key]
	m.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return int64(len(b)), nil
}

// Snapshot returns a copy of the traffic counters.
func (m *Memory) Snapshot() Counters {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.Ops
}

// Len returns the number of stored objects.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// --- Disk ---

// Disk stores each object as one file under a root directory. Key path
// separators become directories. Put writes a temp file and hard-links it
// into place, which never replaces a file: a crash never leaves a torn
// object visible, and of racing Puts of one key — from this process or
// another sharing the directory — exactly one lands.
type Disk struct {
	root string
}

// NewDisk creates (if needed) and uses root as the storage directory.
func NewDisk(root string) (*Disk, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	return &Disk{root: root}, nil
}

func (d *Disk) path(key string) (string, error) {
	clean := filepath.Clean(key)
	if clean == "." || clean == ".." || strings.HasPrefix(clean, "../") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(d.root, clean), nil
}

// Put implements Store.
func (d *Disk) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(p), filepath.Base(p)+".tmp*") // List skips ".tmp"
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	// An object keeps the mode a plain file gets, not CreateTemp's 0600.
	_, err = f.Write(data)
	if err := errors.Join(err, f.Chmod(0o644), f.Close()); err != nil {
		return err
	}
	err = os.Link(f.Name(), p)
	if errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("%w: %q", ErrExists, key)
	}
	return err
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return b, err
}

// openRange opens key and clamps [off, off+n) against the file size.
// The caller closes f.
func (d *Disk) openRange(key string, off, n int64) (f *os.File, start, end int64, err error) {
	p, err := d.path(key)
	if err != nil {
		return nil, 0, 0, err
	}
	f, err = os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	start, end, err = clampRange(st.Size(), off, n)
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	return f, start, end, nil
}

// GetRange implements Store. The read lands in a pooled buffer and is
// copied out exactly-sized for the caller, so the transient read scratch
// never hits the garbage collector; hot paths that can honour a release
// protocol skip the copy entirely via GetRangePooled.
func (d *Disk) GetRange(key string, off, n int64) ([]byte, error) {
	return owned(d.GetRangePooled(key, off, n))
}

// GetPooled implements PooledReader.
func (d *Disk) GetPooled(key string) ([]byte, func(), error) {
	return d.GetRangePooled(key, 0, -1)
}

// GetRangePooled implements PooledReader.
func (d *Disk) GetRangePooled(key string, off, n int64) ([]byte, func(), error) {
	f, start, end, err := d.openRange(key, off, n)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rb := getReadBuf(int(end - start))
	if _, err := f.ReadAt(rb.b, start); err != nil && end > start {
		rb.release()
		return nil, nil, err
	}
	return rb.b, rb.release, nil
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// List implements Store.
func (d *Disk) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(d.root, func(p string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		if strings.Contains(de.Name(), ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Size implements Store.
func (d *Disk) Size(key string) (int64, error) {
	p, err := d.path(key)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// --- Throttled ---

// Throttled wraps a Store with a per-operation latency and a byte
// bandwidth, imposed with real sleeps. It turns a Memory store into an
// "HDD" or "SSD" for runnable examples; the discrete-event simulator, not
// this type, is used for the paper's performance figures.
type Throttled struct {
	Base      Store
	Latency   time.Duration // seek/request setup cost per operation
	BytesPerS float64       // sustained transfer bandwidth; 0 = unlimited

	// extra is additional per-operation latency togglable at runtime
	// (nanoseconds, atomic). Fault schedules use it to open and close
	// slow-disk windows mid-run without reconstructing the store stack.
	extra atomic.Int64

	// Straggler injection: every slowEveryN-th operation takes slowExtra
	// additional latency, modeling the occasional 10x-slow disk read that
	// tail-latency work hedges against. Both togglable at runtime.
	slowEveryN atomic.Int64
	slowExtra  atomic.Int64
	opCount    atomic.Int64
}

// SetExtraLatency adds d on top of Latency for every subsequent
// operation; 0 restores the baseline. Safe to call while reads are in
// flight — in-flight operations keep the value they already sampled.
func (t *Throttled) SetExtraLatency(d time.Duration) { t.extra.Store(int64(d)) }

// SetSlowEvery makes every n-th operation (deterministically, by a global
// operation counter) take extra additional latency — the 1-in-n straggler
// a hedged reader must hide. n <= 0 disables injection. Safe to toggle
// while reads are in flight.
func (t *Throttled) SetSlowEvery(n int, extra time.Duration) {
	if n <= 0 {
		t.slowEveryN.Store(0)
		t.slowExtra.Store(0)
		return
	}
	t.slowExtra.Store(int64(extra))
	t.slowEveryN.Store(int64(n))
}

func (t *Throttled) wait(bytes int) {
	d := t.Latency + time.Duration(t.extra.Load())
	if n := t.slowEveryN.Load(); n > 0 && t.opCount.Add(1)%n == 0 {
		d += time.Duration(t.slowExtra.Load())
	}
	if t.BytesPerS > 0 {
		d += time.Duration(float64(bytes) / t.BytesPerS * float64(time.Second))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Put implements Store.
func (t *Throttled) Put(key string, data []byte) error {
	t.wait(len(data))
	return t.Base.Put(key, data)
}

// Get implements Store.
func (t *Throttled) Get(key string) ([]byte, error) { return owned(t.GetPooled(key)) }

// GetRange implements Store.
func (t *Throttled) GetRange(key string, off, n int64) ([]byte, error) {
	return owned(t.GetRangePooled(key, off, n))
}

// GetPooled implements PooledReader, delegating to the base store's
// pooled path (or its plain Get when it has none) under the same modeled
// latency as Get.
func (t *Throttled) GetPooled(key string) ([]byte, func(), error) {
	b, release, err := GetPooled(t.Base, key)
	t.wait(len(b))
	return b, release, err
}

// GetRangePooled implements PooledReader.
func (t *Throttled) GetRangePooled(key string, off, n int64) ([]byte, func(), error) {
	b, release, err := GetRangePooled(t.Base, key, off, n)
	t.wait(len(b))
	return b, release, err
}

// Delete implements Store.
func (t *Throttled) Delete(key string) error {
	t.wait(0)
	return t.Base.Delete(key)
}

// List implements Store.
func (t *Throttled) List(prefix string) ([]string, error) {
	t.wait(0)
	return t.Base.List(prefix)
}

// Size implements Store.
func (t *Throttled) Size(key string) (int64, error) {
	t.wait(0)
	return t.Base.Size(key)
}
