package server

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"diesel/internal/chunk"
	"diesel/internal/wire"
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
	if s.Exec.Stats.ChunkReads.Load()+s.Exec.Stats.RangeReads.Load() == 0 {
		t.Error("backend reads not counted")
	}
}

// TestBatchMatchesSingleReads: a batch with a duplicate path, a missing
// path and zero-length files, over one merged group and one range group,
// returns for every file the bytes a single-file read returns — from
// GetFilesContext, and through dsl.getBatch against dsl.get on the wire.
// A zero-length file is an empty file, not a missing one, and every file
// GetFilesContext returns is a capped window (cap == len) into its one
// buffer: an append to one cannot reach the next.
func TestBatchMatchesSingleReads(t *testing.T) {
	s, _, _, gen := testStack()
	rng := rand.New(rand.NewSource(5))
	seal := func(sizes map[string]int) {
		b := chunk.NewBuilder(1<<20, gen, s.nowNS)
		for _, name := range slices.Sorted(maps.Keys(sizes)) {
			data := make([]byte, sizes[name])
			rng.Read(data)
			if _, err := b.Add(name, data); err != nil {
				t.Fatal(err)
			}
		}
		_, enc, err := b.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest("ds", enc); err != nil {
			t.Fatal(err)
		}
	}
	seal(map[string]int{"a/f0": 300, "a/empty": 0, "a/f1": 1000, "a/f2": 50, "a/f3": 700})
	seal(map[string]int{"b/g0": 400, "b/empty": 0, "b/g1": 3000})
	// Chunk a: six requests, so one whole-chunk read; chunk b: two requests
	// for a sixth of its bytes, so two range reads.
	batch := []string{"a/f0", "b/g0", "a/empty", "missing/x", "a/f1", "b/empty", "a/f0", "a/f2", "a/f3"}

	chunkReads, rangeReads := s.Exec.Stats.ChunkReads.Load(), s.Exec.Stats.RangeReads.Load()
	got, err := s.GetFilesContext(context.Background(), "ds", batch)
	if err != nil {
		t.Fatal(err)
	}
	if c, r := s.Exec.Stats.ChunkReads.Load()-chunkReads, s.Exec.Stats.RangeReads.Load()-rangeReads; c != 1 || r != 2 {
		t.Errorf("%d chunk reads + %d range reads, want one merged group and one range group (1 + 2)", c, r)
	}
	want := make([][]byte, len(batch))
	for i, p := range batch {
		if p == "missing/x" {
			continue
		}
		if want[i], err = getFile(s, "ds", p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range batch {
		switch missing := p == "missing/x"; {
		case missing && got[i] != nil:
			t.Errorf("%s: %d bytes for a missing file", p, len(got[i]))
		case !missing && (got[i] == nil || !bytes.Equal(got[i], want[i])):
			t.Errorf("%s: the batch's bytes differ from a single read's (nil: %v)", p, got[i] == nil)
		case cap(got[i]) != len(got[i]):
			t.Errorf("%s: cap %d, len %d", p, cap(got[i]), len(got[i]))
		}
	}
	for i := range got {
		_ = append(got[i], "overrun"...) // must reallocate, not write on
	}
	for i, p := range batch {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s changed after appends to its neighbours", p)
		}
	}

	// The same batch on the wire: the table, then the body.
	rpc, err := NewRPC(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	c, err := wire.Dial(rpc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := wire.NewEncoder(64)
	e.String("ds")
	e.StringSlice(batch)
	resp, err := c.Call(MethodGetBatch, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := wire.NewDecoder(resp)
	if n := d.Uint32(); int(n) != len(batch) {
		t.Fatalf("a table of %d files for a batch of %d", n, len(batch))
	}
	body := resp[4+5*len(batch):]
	for _, p := range batch {
		present, n := d.Bool(), int(d.Uint32())
		if d.Err() != nil || n > len(body) {
			t.Fatalf("%s: table entry %d overruns a %d-byte response (%v)", p, n, len(resp), d.Err())
		}
		file := body[:n]
		body = body[n:]
		single, err := c.Call(MethodGet, encStrings("ds", p))
		if p == "missing/x" {
			if present || n != 0 || !wire.IsRemote(err) {
				t.Errorf("%s: present %v, %d bytes; dsl.get says %v", p, present, n, err)
			}
			continue
		}
		sd := wire.NewDecoder(single)
		if err != nil || !present || !bytes.Equal(file, sd.Bytes32()) || sd.Err() != nil {
			t.Errorf("%s: dsl.getBatch and dsl.get disagree (%v)", p, err)
		}
	}
	if len(body) != 0 {
		t.Errorf("%d body bytes past the table's files", len(body))
	}
}
