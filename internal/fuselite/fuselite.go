// Package fuselite is the reproduction's FUSE layer: the POSIX-style
// filesystem interface DIESEL exposes by mounting libDIESEL to a local
// folder (§5, "DIESEL-FUSE").
//
// A real FUSE mount needs the kernel module; this package reproduces the
// *mechanism* that gives DIESEL-FUSE its performance profile instead:
// the kernel splits each read into bounded-size requests and forwards
// every request to the userspace filesystem across a context switch
// (Vangoor et al., FAST'17 — cited by the paper as the source of FUSE
// overhead). Mount therefore runs every operation through a dispatcher
// that splits reads into MaxRequestSize requests, charges a configurable
// per-request overhead, and spreads requests across multiple backing
// libDIESEL clients, exactly as §5 describes ("a multi-threaded loop in
// FUSE and multiple DIESEL clients within one FUSE mount").
//
// FS implements io/fs.FS, io/fs.ReadDirFS and io/fs.StatFS, so training
// code reads DIESEL like a local directory tree — fs.WalkDir is `ls -R`.
package fuselite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/client"
	"diesel/internal/meta"
)

// Config parameterises Mount.
type Config struct {
	// Clients are the backing libDIESEL contexts; POSIX requests
	// round-robin across them. At least one is required.
	Clients []*client.Client
	// MaxRequestSize is the kernel's read-request split size; FUSE's
	// default max_read is 128 KiB.
	MaxRequestSize int
	// PerRequestOverhead models the user↔kernel context-switch cost each
	// FUSE request pays. Zero (the default) disables the model for
	// functional use; experiments set it to study the API-vs-FUSE gap.
	PerRequestOverhead time.Duration
}

// Stats counts FUSE-level activity.
type Stats struct {
	Requests  atomic.Uint64 // kernel-style requests dispatched
	BytesRead atomic.Uint64
	Opens     atomic.Uint64
	Stats     atomic.Uint64
	ReadDirs  atomic.Uint64
}

// FS is a mounted DIESEL filesystem.
type FS struct {
	cfg  Config
	next atomic.Uint64

	// Metrics counts FUSE-level activity for experiments.
	Metrics Stats
}

// Mount wraps the given clients in a POSIX-style filesystem. Every client
// must have a metadata snapshot loaded: DIESEL-FUSE serves all metadata
// from the snapshot (§4.1.3), which is what makes ls -lR run without any
// server round trips (Figure 10c).
func Mount(cfg Config) (*FS, error) {
	if len(cfg.Clients) == 0 {
		return nil, errors.New("fuselite: at least one client required")
	}
	for i, c := range cfg.Clients {
		if c.DefaultDataset().Snapshot() == nil {
			return nil, fmt.Errorf("fuselite: client %d has no snapshot loaded", i)
		}
	}
	if cfg.MaxRequestSize <= 0 {
		cfg.MaxRequestSize = 128 << 10
	}
	return &FS{cfg: cfg}, nil
}

// client picks the next backing client round-robin.
func (f *FS) client() *client.Client {
	i := f.next.Add(1)
	return f.cfg.Clients[i%uint64(len(f.cfg.Clients))]
}

func (f *FS) snapshot() *meta.Snapshot { return f.cfg.Clients[0].DefaultDataset().Snapshot() }

// dispatch charges one FUSE request's overhead.
func (f *FS) dispatch() {
	f.Metrics.Requests.Add(1)
	if f.cfg.PerRequestOverhead > 0 {
		time.Sleep(f.cfg.PerRequestOverhead)
	}
}

// Open implements fs.FS. Opening a directory returns a readdir-capable
// handle; opening a file returns a handle whose Read is served in
// MaxRequestSize slices through the dispatcher.
func (f *FS) Open(name string) (fs.File, error) {
	name, ok := normalize(name)
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	f.dispatch()
	f.Metrics.Opens.Add(1)
	snap := f.snapshot()
	if name == "" || snap.IsDir(name) {
		return &dirHandle{fs: f, path: name}, nil
	}
	m, err := snap.Stat(name)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &fileHandle{fs: f, path: name, size: int64(m.Length)}, nil
}

// Stat implements fs.StatFS via the snapshot — one hashmap probe.
func (f *FS) Stat(name string) (fs.FileInfo, error) {
	name, ok := normalize(name)
	if !ok {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrInvalid}
	}
	f.dispatch()
	f.Metrics.Stats.Add(1)
	snap := f.snapshot()
	if name == "" || snap.IsDir(name) {
		return dirInfo{name: base(name)}, nil
	}
	m, err := snap.Stat(name)
	if err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return fileInfo{name: base(name), size: int64(m.Length), mod: time.Unix(0, snap.UpdatedNS)}, nil
}

// ReadDir implements fs.ReadDirFS from the snapshot's directory tree.
func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	name, ok := normalize(name)
	if !ok {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrInvalid}
	}
	f.dispatch()
	f.Metrics.ReadDirs.Add(1)
	ents, err := f.snapshot().List(name)
	if err != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	out := make([]fs.DirEntry, len(ents))
	for i, e := range ents {
		if e.IsDir {
			out[i] = dirInfo{name: e.Name}
		} else {
			out[i] = fileInfo{name: e.Name, size: int64(e.Size), mod: time.Unix(0, f.snapshot().UpdatedNS)}
		}
	}
	return out, nil
}

// ReadFile reads a whole file through the FUSE request model: the content
// is fetched from DIESEL once, then delivered in MaxRequestSize requests,
// each paying the dispatch overhead — the behaviour that makes
// DIESEL-FUSE measurably slower than DIESEL-API (Figures 11a, 12).
func (f *FS) ReadFile(name string) ([]byte, error) {
	h, err := f.Open(name)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	fh, ok := h.(*fileHandle)
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: errors.New("is a directory")}
	}
	return io.ReadAll(fh)
}

// ShuffleList is the helper of §5 that exposes the chunk-wise shuffled
// file list to POSIX-only training code: it returns the epoch's file list
// as newline-separated paths, as if read from a virtual list file.
func (f *FS) ShuffleList(seed int64, groupSize int) ([]byte, error) {
	cl := f.cfg.Clients[0]
	plan, err := cl.DefaultDataset().ShufflePlan(seed, groupSize)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, p := range plan.Paths(cl.DefaultDataset().Snapshot()) {
		buf.WriteString(p)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// normalize maps an io/fs path to a snapshot path: "." is the root, and
// anything failing fs.ValidPath is rejected (io/fs contract).
func normalize(name string) (string, bool) {
	if name == "." || name == "" {
		return "", true
	}
	if !fs.ValidPath(name) {
		return name, false
	}
	return name, true
}

func base(p string) string {
	if p == "" {
		return "."
	}
	_, b := meta.SplitPath(p)
	return b
}

// --- handles ---

// fileHandle lazily fetches the file on first read and serves it in
// request-sized slices.
type fileHandle struct {
	fs   *FS
	path string
	size int64

	mu   sync.Mutex
	data []byte // fetched on first read
	off  int64
}

// Stat implements fs.File.
func (h *fileHandle) Stat() (fs.FileInfo, error) {
	return fileInfo{name: base(h.path), size: h.size, mod: time.Unix(0, h.fs.snapshot().UpdatedNS)}, nil
}

// ensure fetches the content once.
func (h *fileHandle) ensure() error {
	if h.data != nil {
		return nil
	}
	b, err := h.fs.client().DefaultDataset().Get(context.Background(), h.path)
	if err != nil {
		return &fs.PathError{Op: "read", Path: h.path, Err: err}
	}
	h.data = b
	return nil
}

// Read implements io.Reader with kernel-style request splitting: at most
// MaxRequestSize bytes are returned per call and each call costs one
// dispatched request.
func (h *fileHandle) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensure(); err != nil {
		return 0, err
	}
	if h.off >= int64(len(h.data)) {
		return 0, io.EOF
	}
	h.fs.dispatch()
	n := len(p)
	if n > h.fs.cfg.MaxRequestSize {
		n = h.fs.cfg.MaxRequestSize
	}
	n = copy(p[:n], h.data[h.off:])
	h.off += int64(n)
	h.fs.Metrics.BytesRead.Add(uint64(n))
	return n, nil
}

// ReadAt implements io.ReaderAt with the same request model.
func (h *fileHandle) ReadAt(p []byte, off int64) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.ensure(); err != nil {
		return 0, err
	}
	if off < 0 || off > int64(len(h.data)) {
		return 0, fmt.Errorf("fuselite: offset %d out of range", off)
	}
	total := 0
	for total < len(p) && off+int64(total) < int64(len(h.data)) {
		h.fs.dispatch()
		n := min(len(p)-total, h.fs.cfg.MaxRequestSize)
		n = copy(p[total:total+n], h.data[off+int64(total):])
		total += n
		h.fs.Metrics.BytesRead.Add(uint64(n))
	}
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// Close implements fs.File.
func (h *fileHandle) Close() error {
	h.mu.Lock()
	h.data = nil
	h.mu.Unlock()
	return nil
}

// dirHandle supports ReadDir on an open directory.
type dirHandle struct {
	fs   *FS
	path string
	mu   sync.Mutex
	ents []fs.DirEntry
	pos  int
}

// Stat implements fs.File.
func (h *dirHandle) Stat() (fs.FileInfo, error) { return dirInfo{name: base(h.path)}, nil }

// Read implements fs.File; reading a directory is an error.
func (h *dirHandle) Read([]byte) (int, error) {
	return 0, &fs.PathError{Op: "read", Path: h.path, Err: errors.New("is a directory")}
}

// ReadDir implements fs.ReadDirFile with POSIX n semantics.
func (h *dirHandle) ReadDir(n int) ([]fs.DirEntry, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ents == nil {
		ents, err := h.fs.ReadDir(h.path)
		if err != nil {
			return nil, err
		}
		h.ents = ents
	}
	if n <= 0 {
		out := h.ents[h.pos:]
		h.pos = len(h.ents)
		return out, nil
	}
	if h.pos >= len(h.ents) {
		return nil, io.EOF
	}
	end := min(h.pos+n, len(h.ents))
	out := h.ents[h.pos:end]
	h.pos = end
	return out, nil
}

// Close implements fs.File.
func (h *dirHandle) Close() error { return nil }

// --- fs.FileInfo / fs.DirEntry implementations ---

type fileInfo struct {
	name string
	size int64
	mod  time.Time
}

func (i fileInfo) Name() string               { return i.name }
func (i fileInfo) Size() int64                { return i.size }
func (i fileInfo) Mode() fs.FileMode          { return 0o444 }
func (i fileInfo) ModTime() time.Time         { return i.mod }
func (i fileInfo) IsDir() bool                { return false }
func (i fileInfo) Sys() any                   { return nil }
func (i fileInfo) Type() fs.FileMode          { return 0 }
func (i fileInfo) Info() (fs.FileInfo, error) { return i, nil }

type dirInfo struct{ name string }

func (i dirInfo) Name() string               { return i.name }
func (i dirInfo) Size() int64                { return 0 }
func (i dirInfo) Mode() fs.FileMode          { return fs.ModeDir | 0o555 }
func (i dirInfo) ModTime() time.Time         { return time.Time{} }
func (i dirInfo) IsDir() bool                { return true }
func (i dirInfo) Sys() any                   { return nil }
func (i dirInfo) Type() fs.FileMode          { return fs.ModeDir }
func (i dirInfo) Info() (fs.FileInfo, error) { return i, nil }
