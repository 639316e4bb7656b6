// Package meta defines DIESEL's metadata layer: the key-value schema file
// and chunk metadata are stored under (Figure 5b of the paper), the
// serialised records, the per-dataset metadata snapshot materialised to
// client disk (§4.1.3), and the in-memory interpreter that turns a loaded
// snapshot into O(1) stat and readdir without contacting any server.
//
// Paths are slash-separated and relative to the dataset root, e.g.
// "train/n01440764/img_0001.jpg". The empty string names the root
// directory.
package meta

import (
	"errors"
	"fmt"
	"strings"
)

// Key prefixes. Stat of a full path is a single get on a key derived from
// hash(dir) + basename, as in §4.1.1. Figure 5b's directory records are
// not kept: a directory exists while a committed file lies under it, so
// a listing is read from the committed view of the chunk and file records
// (server.BuildSnapshot), never from a record of its own.
const (
	prefixDataset = "ds|" // ds|<dataset> → DatasetRecord
	prefixChunk   = "ck|" // ck|<dataset>|<chunkID> → ChunkRecord
	prefixFile    = "f|"  // f|<dataset>|<hash(dir)>|<base> → FileRecord
)

// ErrInvalidName is returned for dataset names and file paths that embed
// the key-schema separator; allowing them would let one dataset's keys
// alias another's (see the prefix* constants above).
var ErrInvalidName = errors.New("meta: name contains reserved character")

// ValidDataset checks that a dataset name is usable in metadata keys:
// non-empty, no '|' (the key separator) and no '/' (the object-store
// namespace separator).
func ValidDataset(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty dataset name", ErrInvalidName)
	}
	if strings.ContainsAny(name, "|/") {
		return fmt.Errorf("%w: dataset %q may not contain '|' or '/'", ErrInvalidName, name)
	}
	return nil
}

// ValidFilePath checks that a dataset-relative path is usable in metadata
// keys: '|' is reserved as the key separator.
func ValidFilePath(path string) error {
	if strings.ContainsRune(path, '|') {
		return fmt.Errorf("%w: path %q may not contain '|'", ErrInvalidName, path)
	}
	if CleanPath(path) == "" {
		return fmt.Errorf("%w: empty path", ErrInvalidName)
	}
	return nil
}

// CleanPath normalises a dataset-relative path: slashes collapsed, leading
// and trailing slashes stripped. It rejects nothing — callers validate
// emptiness where it matters.
func CleanPath(p string) string {
	// Already-clean paths — the overwhelmingly common case on the per-read
	// Stat path — return unchanged, keeping CleanPath allocation-free.
	if isCleanPath(p) {
		return p
	}
	parts := strings.Split(p, "/")
	out := parts[:0]
	for _, s := range parts {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return strings.Join(out, "/")
}

// isCleanPath reports whether CleanPath(p) == p: no empty segments (which
// also rules out leading, trailing and doubled slashes) and no "."
// segments.
func isCleanPath(p string) bool {
	if p == "" {
		return true
	}
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			seg := p[start:i]
			if seg == "" || seg == "." {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// SplitPath returns the directory and basename of a cleaned path. The root
// directory is "".
func SplitPath(p string) (dir, base string) {
	p = CleanPath(p)
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return "", p
	}
	return p[:i], p[i+1:]
}

// dirHash is the 16 lower-case hex digits of the FNV-1a 64-bit hash of a
// directory path — the form it takes in file keys. It is computed inline
// and returned by value so FileKey costs the one allocation of the key
// itself; keys are persisted, so the digits must stay exactly what
// hash/fnv and "%016x" produce.
func dirHash(dir string) (hex [16]byte) {
	dir = CleanPath(dir)
	h := uint64(14695981039346656037)
	for i := 0; i < len(dir); i++ {
		h ^= uint64(dir[i])
		h *= 1099511628211
	}
	for i := range hex {
		hex[i] = "0123456789abcdef"[h>>(60-4*i)&15]
	}
	return hex
}

// DatasetKey is the key of a dataset's summary record.
func DatasetKey(dataset string) string { return prefixDataset + dataset }

// ChunkKey is the key of one chunk's metadata record. Chunk IDs are
// order-preserving strings, so a prefix scan of ChunkScanPrefix(dataset)
// yields chunks in write order.
func ChunkKey(dataset, chunkID string) string {
	return prefixChunk + dataset + "|" + chunkID
}

// ChunkScanPrefix returns the pscan prefix covering all chunk records of a
// dataset.
func ChunkScanPrefix(dataset string) string { return prefixChunk + dataset + "|" }

// FileKey is the key of one file's metadata record.
func FileKey(dataset, path string) string {
	dir, base := SplitPath(path)
	h := dirHash(dir)
	return prefixFile + dataset + "|" + string(h[:]) + "|" + base
}

// FileDatasetPrefix returns the pscan prefix covering the file records of
// every directory of a dataset.
func FileDatasetPrefix(dataset string) string { return prefixFile + dataset + "|" }
