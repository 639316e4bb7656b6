package trace

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func smallSpec() Spec {
	return Spec{Name: "t", NumFiles: 200, Classes: 10, MeanFileSize: 512, SizeSpread: 0.5, Seed: 9}
}

func TestFileDataDeterministic(t *testing.T) {
	s := smallSpec()
	for _, i := range []int{0, 1, 99, 199} {
		a, b := s.FileData(i), s.FileData(i)
		if !bytes.Equal(a, b) {
			t.Fatalf("file %d nondeterministic", i)
		}
	}
}

func TestVerifyAcceptsGeneratedRejectsTampered(t *testing.T) {
	s := smallSpec()
	for i := range 50 {
		b := s.FileData(i)
		if err := s.Verify(i, b); err != nil {
			t.Fatalf("Verify(%d): %v", i, err)
		}
		// Wrong index.
		if err := s.Verify(i+1, b); err == nil {
			t.Fatalf("file %d verified as %d", i, i+1)
		}
		// Flipped byte.
		bad := append([]byte(nil), b...)
		bad[len(bad)-1] ^= 0xFF
		if err := s.Verify(i, bad); err == nil {
			t.Fatalf("tampered file %d verified", i)
		}
		// Truncated.
		if err := s.Verify(i, b[:len(b)-1]); err == nil {
			t.Fatalf("truncated file %d verified", i)
		}
	}
}

func TestFileSizesWithinSpread(t *testing.T) {
	s := smallSpec()
	for i := range s.NumFiles {
		n := s.FileSize(i)
		lo := int(float64(s.MeanFileSize) * (1 - s.SizeSpread))
		hi := int(float64(s.MeanFileSize)*(1+s.SizeSpread)) + 1
		if n < lo || n > hi {
			t.Fatalf("file %d size %d outside [%d,%d]", i, n, lo, hi)
		}
	}
}

func TestClassesContiguous(t *testing.T) {
	s := smallSpec()
	prev := 0
	counts := make(map[int]int)
	for i := range s.NumFiles {
		c := s.Class(i)
		if c < prev {
			t.Fatalf("classes not monotone at %d", i)
		}
		if !strings.Contains(s.FileName(i), fmt.Sprintf("c%04d/", c)) {
			t.Fatalf("file name %q does not match class %d", s.FileName(i), c)
		}
		prev = c
		counts[c]++
	}
	if len(counts) != s.Classes {
		t.Fatalf("%d distinct classes, want %d", len(counts), s.Classes)
	}
}

func TestSpecShapes(t *testing.T) {
	im := ImageNetLike(0.001)
	if im.NumFiles != 1281 || im.MeanFileSize != 110<<10 {
		t.Errorf("ImageNetLike: %+v", im)
	}
	ci := CIFARLike(1)
	if ci.NumFiles != 60000 || ci.Classes != 10 {
		t.Errorf("CIFARLike: %+v", ci)
	}
	oi := OpenImagesLike(0.0001)
	if oi.NumFiles != 900 {
		t.Errorf("OpenImagesLike: %+v", oi)
	}
}

func TestTotalBytesMatchesSizes(t *testing.T) {
	s := Spec{NumFiles: 100, Classes: 4, MeanFileSize: 100, Seed: 4}
	if got := s.TotalBytes(); got != 100*100 {
		t.Errorf("TotalBytes = %d", got)
	}
}

// memStore is a threadsafe Putter/Getter for driver tests.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (m *memStore) Put(p string, b []byte) error {
	m.mu.Lock()
	m.m[p] = append([]byte(nil), b...)
	m.mu.Unlock()
	return nil
}

func (m *memStore) Get(_ context.Context, p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.m[p]
	if !ok {
		return nil, fmt.Errorf("missing %q", p)
	}
	return b, nil
}

func TestWriteReadDriver(t *testing.T) {
	s := smallSpec()
	store := &memStore{m: make(map[string][]byte)}
	if err := Write(s, func(int) (Putter, error) { return store, nil }, 7); err != nil {
		t.Fatal(err)
	}
	if len(store.m) != s.NumFiles {
		t.Fatalf("wrote %d files, want %d", len(store.m), s.NumFiles)
	}
	order := make([]int, s.NumFiles)
	for i := range order {
		order[i] = s.NumFiles - 1 - i // reversed order
	}
	if err := ReadOrder(s, func(int) (Getter, error) { return store, nil }, 5, order); err != nil {
		t.Fatal(err)
	}
}

func TestReadOrderDetectsCorruption(t *testing.T) {
	s := smallSpec()
	store := &memStore{m: make(map[string][]byte)}
	if err := Write(s, func(int) (Putter, error) { return store, nil }, 2); err != nil {
		t.Fatal(err)
	}
	victim := s.FileName(42)
	store.m[victim][20] ^= 0xFF
	order := []int{40, 41, 42, 43}
	if err := ReadOrder(s, func(int) (Getter, error) { return store, nil }, 1, order); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestVerifyQuick(t *testing.T) {
	s := smallSpec()
	f := func(i uint16) bool {
		idx := int(i) % s.NumFiles
		return s.Verify(idx, s.FileData(idx)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
