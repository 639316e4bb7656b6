package client

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"diesel/internal/server"
	"diesel/internal/wire"
)

// TestGetBatchFilesAreCappedWindows: a batch's files are windows into the
// one response allocation — each with cap == len, so an append to one
// cannot reach the next — and a missing file is nil.
func TestGetBatchFilesAreCappedWindows(t *testing.T) {
	c := connect(t, startServers(t, 1), "ds")
	files := writeDataset(t, c, 16, 300)
	paths := make([]string, 0, len(files)+1)
	for n := range files {
		paths = append(paths, n)
	}
	sort.Strings(paths)
	paths = append(paths[:4:4], append([]string{"train/nope.jpg"}, paths[4:]...)...)

	out, err := c.DefaultDataset().GetBatch(context.Background(), paths)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if p == "train/nope.jpg" {
			if out[i] != nil {
				t.Errorf("missing file is %d bytes, want nil", len(out[i]))
			}
			continue
		}
		if cap(out[i]) != len(out[i]) {
			t.Errorf("%s: cap %d, len %d", p, cap(out[i]), len(out[i]))
		}
	}
	for i := range out {
		_ = append(out[i], "overrun"...) // must reallocate, not write on
	}
	for i, p := range paths {
		if p != "train/nope.jpg" && !bytes.Equal(out[i], files[p]) {
			t.Errorf("%s changed after appends to its neighbours", p)
		}
	}
}

// TestGetBatchRejectsDoctoredResponses: a response whose table disagrees
// with the request about the batch size, or with the body about its
// length, is an error — never a panic, never a short batch.
func TestGetBatchRejectsDoctoredResponses(t *testing.T) {
	var reply []byte
	srv := wire.NewServer()
	srv.Handle(server.MethodGetBatch, func([]byte) ([]byte, error) { return reply, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := connect(t, []string{addr}, "ds")

	// batch lays a response out as dsl.getBatch does: the table (count,
	// then a present flag and a length per file), then the body.
	type entry struct {
		present bool
		size    uint32
	}
	batch := func(table []entry, body string) []byte {
		e := wire.NewEncoder(64)
		e.Uint32(uint32(len(table)))
		for _, f := range table {
			e.Bool(f.present)
			e.Uint32(f.size)
		}
		return append(e.Bytes(), body...)
	}
	table := []entry{{true, 3}, {false, 0}, {true, 5}}
	whole := batch(table, "onethree")
	for _, tc := range []struct {
		name  string
		reply []byte
		ok    bool
	}{
		{"well-formed", whole, true},
		{"one file too few", batch(table[:2], "one"), false},
		{"one file too many", batch(append(table, entry{true, 4}), "onethreefour"), false},
		{"empty", nil, false},
		{"cut after the count", whole[:4], false},
		{"cut inside the table", whole[:4+5+2], false},
		{"cut inside the last file", whole[:len(whole)-2], false},
		{"a length that overruns the body", batch([]entry{{true, 3}, {false, 0}, {true, 200}}, "onethree"), false},
		{"a body longer than the table declares", batch(table, "onethreefour"), false},
		{"a missing file with bytes", batch([]entry{{true, 3}, {false, 4}, {true, 5}}, "onefourthree"), false},
	} {
		reply = tc.reply
		out, err := c.DefaultDataset().GetBatch(context.Background(), []string{"a", "b", "c"})
		if tc.ok {
			if err != nil || string(out[0]) != "one" || out[1] != nil || string(out[2]) != "three" {
				t.Errorf("%s: %q, %v", tc.name, out, err)
			}
		} else if err == nil || out != nil {
			t.Errorf("%s: accepted as %q (%v)", tc.name, out, err)
		}
	}
}

// TestGetBatchAllocations: unpacking a warm 8-file batch allocates the
// result slice and nothing per file. The budget covers the whole in-process
// round trip (client, wire, server): 55 allocations, 57 under the race
// detector (which drops sync.Pool items at random); 56 and 58 when each
// request ran on a goroutine of its own, 111 when every layer copied the
// files on, and 118 when GetBatch also copied each file out of a pooled
// frame.
func TestGetBatchAllocations(t *testing.T) {
	c := connect(t, startServers(t, 1), "ds")
	files := writeDataset(t, c, 64, 1024)
	paths := make([]string, 0, len(files))
	for n := range files {
		paths = append(paths, n)
	}
	sort.Strings(paths)
	paths = paths[:8] // two files in each of four chunks: eight range reads
	ds := c.DefaultDataset()
	read := func() {
		if _, err := ds.GetBatch(context.Background(), paths); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm: connections, pools, the server's chunk shapes
	if allocs := testing.AllocsPerRun(200, read); allocs > 57 {
		t.Errorf("a warm 8-file GetBatch: %.0f allocs, budget 57", allocs)
	}
}
