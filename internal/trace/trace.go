// Package trace generates the synthetic datasets and concurrent I/O
// workloads the experiments run on, standing in for ImageNet-1K,
// Open Images and CIFAR-10 (which cannot ship with this repository) and
// for the paper's MPI test tool (§6.1: file lists divided evenly among
// processes, random contents plus a hash for verification).
//
// File contents are deterministic in (spec seed, file index): any reader
// can verify any file without shared state, exactly like the paper's
// hash-checked random files.
package trace

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
)

// Spec describes a synthetic dataset. Files are named
// train/c<class>/img<index>.bin and are assigned to classes round-robin
// sequentially — matching how real datasets are written class-by-class,
// which is the adversarial layout for chunk-locality shuffles.
type Spec struct {
	Name         string
	NumFiles     int
	Classes      int
	MeanFileSize int
	// SizeSpread is the ± fractional size jitter (uniform); 0 = fixed.
	SizeSpread float64
	Seed       int64
}

// ImageNetLike scales the ImageNet-1K shape (1.28 M files, 1000 classes,
// ~110 KB average) by the given factor (1.0 = full size).
func ImageNetLike(scale float64) Spec {
	n := int(1_281_167 * scale)
	classes := min(1000, max(1, n/10))
	return Spec{
		Name: "imagenet", NumFiles: n, Classes: classes,
		MeanFileSize: 110 << 10, SizeSpread: 0.5, Seed: 1,
	}
}

// OpenImagesLike scales the Open Images shape (~9 M files, ~60 KB).
func OpenImagesLike(scale float64) Spec {
	n := int(9_000_000 * scale)
	return Spec{
		Name: "openimages", NumFiles: n, Classes: min(600, max(1, n/20)),
		MeanFileSize: 60 << 10, SizeSpread: 0.6, Seed: 2,
	}
}

// CIFARLike scales the CIFAR-10 shape (60 k tiny files, 10 classes).
func CIFARLike(scale float64) Spec {
	n := int(60_000 * scale)
	return Spec{
		Name: "cifar10", NumFiles: n, Classes: 10,
		MeanFileSize: 3 << 10, SizeSpread: 0.1, Seed: 3,
	}
}

// FileName returns the path of file i. Files are grouped into class
// directories in index order, so consecutive files share a class.
func (s Spec) FileName(i int) string {
	class := i * s.Classes / s.NumFiles
	return fmt.Sprintf("train/c%04d/img%07d.bin", class, i)
}

// Class returns file i's class label.
func (s Spec) Class(i int) int { return i * s.Classes / s.NumFiles }

// FileSize returns the deterministic size of file i.
func (s Spec) FileSize(i int) int {
	if s.SizeSpread <= 0 {
		return s.MeanFileSize
	}
	rng := rand.New(rand.NewSource(s.Seed ^ int64(i)*0x1E3779B97F4A7C15))
	f := 1 + s.SizeSpread*(2*rng.Float64()-1)
	n := int(float64(s.MeanFileSize) * f)
	if n < 16 {
		n = 16
	}
	return n
}

// FileData generates file i's content: pseudorandom bytes with the file
// index and a CRC32 embedded in the first 16 bytes, so Verify can check
// both identity and integrity.
func (s Spec) FileData(i int) []byte {
	n := s.FileSize(i)
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(s.Seed ^ (int64(i)+1)*0x517CC1B727220A95))
	rng.Read(b[16:])
	binary.BigEndian.PutUint64(b[0:8], uint64(i))
	binary.BigEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(b[16:]))
	return b
}

// Verify checks that b is exactly file i's content.
func (s Spec) Verify(i int, b []byte) error {
	if len(b) != s.FileSize(i) {
		return fmt.Errorf("trace: file %d has %d bytes, want %d", i, len(b), s.FileSize(i))
	}
	if got := binary.BigEndian.Uint64(b[0:8]); got != uint64(i) {
		return fmt.Errorf("trace: file %d contains index %d", i, got)
	}
	if crc32.ChecksumIEEE(b[16:]) != binary.BigEndian.Uint32(b[8:12]) {
		return fmt.Errorf("trace: file %d content checksum mismatch", i)
	}
	return nil
}

// TotalBytes returns the dataset's total payload size.
func (s Spec) TotalBytes() int64 {
	var t int64
	for i := range s.NumFiles {
		t += int64(s.FileSize(i))
	}
	return t
}

// Putter is the write side of a storage client (libDIESEL, Lustre model,
// Memcached router behind an adapter).
type Putter interface {
	Put(path string, data []byte) error
}

// Flusher is implemented by clients that buffer writes.
type Flusher interface {
	Flush() error
}

// Getter is the read side (context-first, as *client.Dataset is).
type Getter interface {
	Get(ctx context.Context, path string) ([]byte, error)
}

// Write streams the dataset into the store with the given number of
// concurrent writers, dividing the file list evenly as the paper's MPI
// tool does. Each writer owns a contiguous index range, so with one
// Putter per writer, chunk contents stay deterministic per writer.
func Write(spec Spec, mk func(worker int) (Putter, error), workers int) error {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	per := (spec.NumFiles + workers - 1) / workers
	for w := range workers {
		lo, hi := w*per, min((w+1)*per, spec.NumFiles)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p, err := mk(w)
			if err != nil {
				errCh <- err
				return
			}
			for i := lo; i < hi; i++ {
				if err := p.Put(spec.FileName(i), spec.FileData(i)); err != nil {
					errCh <- fmt.Errorf("trace: write %d: %w", i, err)
					return
				}
			}
			if f, ok := p.(Flusher); ok {
				if err := f.Flush(); err != nil {
					errCh <- err
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	close(errCh)
	return drain(errCh)
}

// drain joins every worker error so a multi-worker failure reports all
// causes, not whichever worker happened to enqueue first.
func drain(errCh chan error) error {
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// ReadOrder reads files in the given index order with concurrent workers
// (each worker takes a stride slice) and verifies every byte.
func ReadOrder(spec Spec, mk func(worker int) (Getter, error), workers int, order []int) error {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := mk(w)
			if err != nil {
				errCh <- err
				return
			}
			for pos := w; pos < len(order); pos += workers {
				i := order[pos]
				b, err := g.Get(context.Background(), spec.FileName(i))
				if err != nil {
					errCh <- fmt.Errorf("trace: read %d: %w", i, err)
					return
				}
				if err := spec.Verify(i, b); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	return drain(errCh)
}
