package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/meta"
)

func testClient(t *testing.T) *client.Client {
	t.Helper()
	dep, err := core.Deploy(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	c, err := dep.NewClient("ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDlcmdPutGetStatLsRm(t *testing.T) {
	c := testClient(t)
	dir := t.TempDir()
	local := filepath.Join(dir, "hello.txt")
	if err := os.WriteFile(local, []byte("hello diesel"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(c, "put", []string{local, "docs/hello.txt"}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.txt")
	if err := run(c, "get", []string{"docs/hello.txt", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil || string(b) != "hello diesel" {
		t.Fatalf("round trip = %q, %v", b, err)
	}
	if err := run(c, "stat", []string{"docs/hello.txt"}); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "ls", []string{"docs"}); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "ls", []string{"no/such/dir"}); err == nil || !strings.Contains(err.Error(), meta.ErrNotExist.Error()) {
		t.Errorf("ls of a missing directory: %v, want %q", err, meta.ErrNotExist)
	}
	if err := run(c, "info", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "rm", []string{"docs/hello.txt"}); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "get", []string{"docs/hello.txt", out}); err == nil {
		t.Fatal("get after rm succeeded")
	}
}

func TestDlcmdPutDir(t *testing.T) {
	c := testClient(t)
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "sub"), 0o755)
	os.WriteFile(filepath.Join(dir, "a.bin"), []byte("a"), 0o644)
	os.WriteFile(filepath.Join(dir, "sub", "b.bin"), []byte("b"), 0o644)

	if err := run(c, "put-dir", []string{dir, "up"}); err != nil {
		t.Fatal(err)
	}
	b, err := c.DefaultDataset().Get(context.Background(), "up/sub/b.bin")
	if err != nil || string(b) != "b" {
		t.Fatalf("uploaded tree: %q, %v", b, err)
	}
}

func TestDlcmdGenSaveMetaPurge(t *testing.T) {
	c := testClient(t)
	if err := run(c, "gen", []string{"50", "256"}); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "ds.snap")
	if err := run(c, "save-meta", []string{snap}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatal("snapshot file missing")
	}
	if err := run(c, "purge", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "rm-dataset", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "info", nil); err == nil {
		t.Fatal("info after rm-dataset succeeded")
	}
}

func TestDlcmdErrors(t *testing.T) {
	c := testClient(t)
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"put", []string{"only-one"}},
		{"get", nil},
		{"stat", nil},
		{"rm", nil},
		{"save-meta", nil},
		{"gen", []string{"x", "y"}},
		{"ls", []string{"no/such/dir"}},
		{"no-such-command", nil},
	} {
		if err := run(c, tc.cmd, tc.args); err == nil {
			t.Errorf("%s %v: expected error", tc.cmd, tc.args)
		}
	}
}

func TestDlcmdRecover(t *testing.T) {
	dep, err := core.Deploy(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	c, err := dep.NewClient("ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := run(c, "gen", []string{"30", "128"}); err != nil {
		t.Fatal(err)
	}
	for _, kv := range dep.KVServers() {
		kv.Wipe()
	}
	if err := run(c, "recover", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(c, "info", nil); err != nil {
		t.Fatalf("info after recover: %v", err)
	}
	if err := run(c, "recover", []string{"not-a-number"}); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}
