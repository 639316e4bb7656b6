package server

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// TestExecutorBatchEquivalence is the executor's core correctness
// property: for any random subset of paths in any order, with or without
// merging, GetFiles returns exactly what per-file GetFile returns.
func TestExecutorBatchEquivalence(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 150, 300, 3000)
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := range 30 {
		merge := trial%2 == 0
		s.Exec.Merge = merge
		// Random subset, random order, possible duplicates and misses.
		k := 1 + rng.Intn(len(names))
		batch := make([]string, k)
		for i := range k {
			if rng.Intn(10) == 0 {
				batch[i] = "missing/file"
			} else {
				batch[i] = names[rng.Intn(len(names))]
			}
		}
		got, err := s.GetFilesContext(context.Background(), "ds", batch)
		if err != nil {
			t.Fatalf("trial %d (merge=%v): %v", trial, merge, err)
		}
		for i, p := range batch {
			want, exists := files[p]
			if !exists {
				if got[i] != nil {
					t.Fatalf("trial %d: missing path %q returned %d bytes", trial, p, len(got[i]))
				}
				continue
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("trial %d (merge=%v): %q mismatch", trial, merge, p)
			}
		}
	}
}

// TestExecutorDuplicatePathsInBatch: the same path twice must yield the
// same bytes twice (the executor groups by chunk, so duplicates share a
// group).
func TestExecutorDuplicatePathsInBatch(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 10, 100, 1000)
	var name string
	for n := range files {
		name = n
		break
	}
	got, err := s.GetFilesContext(context.Background(), "ds", []string{name, name, name})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if !bytes.Equal(got[i], files[name]) {
			t.Fatalf("duplicate %d mismatch", i)
		}
	}
}

// TestExecutorSpanFractionTrigger: few files that cover most of a chunk's
// bytes trigger a whole-chunk read even below the file-count threshold.
func TestExecutorSpanFractionTrigger(t *testing.T) {
	s, _, _, gen := testStack()
	// Two 1500-byte files per ~3000-byte chunk.
	files := writeFiles(t, s, gen, "ds", 8, 1500, 3000)
	s.Exec.minFiles = 100 // disable the count trigger
	s.Exec.minSpan = 0.5

	var names []string
	for n := range files {
		names = append(names, n)
	}
	if _, err := s.GetFilesContext(context.Background(), "ds", names); err != nil {
		t.Fatal(err)
	}
	if s.Exec.Stats.ChunkReads.Load() == 0 {
		t.Error("span-fraction trigger never fired")
	}
}

func TestExecutorStatsAccounting(t *testing.T) {
	s, _, _, gen := testStack()
	files := writeFiles(t, s, gen, "ds", 64, 128, 1024)
	var names []string
	for n := range files {
		names = append(names, n)
	}
	if _, err := s.GetFilesContext(context.Background(), "ds", names); err != nil {
		t.Fatal(err)
	}
	if got := s.Exec.Stats.FilesServed.Load(); got != 64 {
		t.Errorf("FilesServed = %d", got)
	}
	if s.Exec.Stats.BackendBytes.Load() == 0 {
		t.Error("BackendBytes not counted")
	}
}
