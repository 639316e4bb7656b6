package fuselite

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"testing"
	"testing/fstest"
	"time"

	"diesel/internal/client"
	"diesel/internal/server"
)

// mount builds a server, writes files, and mounts a FUSE view with nClients
// backing clients.
func mount(t *testing.T, nFiles, fileSize, nClients int, overhead time.Duration) (*FS, map[string][]byte) {
	t.Helper()
	core := server.NewLocalStack()
	rpc, err := server.NewRPC(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })

	w, err := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds", ChunkTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	files := make(map[string][]byte, nFiles)
	for i := range nFiles {
		name := fmt.Sprintf("train/c%d/f%03d.jpg", i%3, i)
		data := make([]byte, fileSize)
		rng.Read(data)
		files[name] = data
		if err := w.DefaultDataset().Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	clients := make([]*client.Client, nClients)
	for i := range nClients {
		c, err := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds", Rank: i})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DefaultDataset().DownloadSnapshot(); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(func() { c.Close() })
	}
	fsys, err := Mount(Config{Clients: clients, MaxRequestSize: 512, PerRequestOverhead: overhead})
	if err != nil {
		t.Fatal(err)
	}
	return fsys, files
}

func TestMountValidation(t *testing.T) {
	if _, err := Mount(Config{}); err == nil {
		t.Error("mount with no clients accepted")
	}
	core := server.NewLocalStack()
	rpc, _ := server.NewRPC(core, "127.0.0.1:0")
	defer rpc.Close()
	c, _ := client.Connect(client.Options{Servers: []string{rpc.Addr()}, Dataset: "ds"})
	defer c.Close()
	if _, err := Mount(Config{Clients: []*client.Client{c}}); err == nil {
		t.Error("mount without snapshot accepted")
	}
}

func TestFSTestCompliance(t *testing.T) {
	fsys, files := mount(t, 12, 100, 1, 0)
	var names []string
	for n := range files {
		names = append(names, n)
	}
	if err := fstest.TestFS(fsys, names...); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileContents(t *testing.T) {
	fsys, files := mount(t, 20, 1500, 2, 0)
	for name, want := range files {
		got, err := fsys.ReadFile(name)
		if err != nil {
			t.Fatalf("ReadFile(%q): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadFile(%q): mismatch", name)
		}
	}
}

func TestReadSplitsIntoRequests(t *testing.T) {
	fsys, files := mount(t, 1, 2000, 1, 0)
	var name string
	for n := range files {
		name = n
	}
	before := fsys.Metrics.Requests.Load()
	if _, err := fsys.ReadFile(name); err != nil {
		t.Fatal(err)
	}
	reqs := fsys.Metrics.Requests.Load() - before
	// open(1) + ceil(2000/512)=4 reads + final EOF-returning read costs no
	// dispatch, so at least 5 requests.
	if reqs < 5 {
		t.Errorf("2000-byte file with 512-byte requests dispatched only %d requests", reqs)
	}
}

func TestPerRequestOverheadCharged(t *testing.T) {
	fsys, files := mount(t, 1, 2048, 1, 5*time.Millisecond)
	var name string
	for n := range files {
		name = n
	}
	start := time.Now()
	if _, err := fsys.ReadFile(name); err != nil {
		t.Fatal(err)
	}
	// open + 4 read requests ≥ 25ms.
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("read took %v, want >= 25ms of modeled overhead", d)
	}
}

func TestReadAt(t *testing.T) {
	fsys, files := mount(t, 1, 3000, 1, 0)
	var name string
	var want []byte
	for n, b := range files {
		name, want = n, b
	}
	h, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ra := h.(io.ReaderAt)
	buf := make([]byte, 100)
	if _, err := ra.ReadAt(buf, 1500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want[1500:1600]) {
		t.Error("ReadAt content mismatch")
	}
	// Short read at the end returns io.EOF.
	n, err := ra.ReadAt(buf, 2950)
	if n != 50 || err != io.EOF {
		t.Errorf("tail ReadAt = %d, %v", n, err)
	}
}

func TestWalkDirVisitsAll(t *testing.T) {
	fsys, files := mount(t, 30, 64, 1, 0)
	var visited int
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			visited++
			if _, ok := files[path]; !ok {
				t.Errorf("walk found unknown file %q", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != len(files) {
		t.Errorf("walk visited %d files, want %d", visited, len(files))
	}
}

func TestLsLRStyleListing(t *testing.T) {
	// ls -lR = walk + stat every entry; all served from the snapshot with
	// zero server traffic.
	fsys, files := mount(t, 25, 128, 1, 0)
	cl := fsys.cfg.Clients[0]
	serverOpsBefore := cl.Stats.ServerMetaOps.Load()
	var statted int
	fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if !d.IsDir() {
			statted++
			if info.Size() != 128 {
				t.Errorf("%q size = %d", path, info.Size())
			}
		}
		return nil
	})
	if statted != len(files) {
		t.Errorf("statted %d files", statted)
	}
	if cl.Stats.ServerMetaOps.Load() != serverOpsBefore {
		t.Error("ls -lR touched the metadata server despite the snapshot")
	}
}

func TestOpenMissing(t *testing.T) {
	fsys, _ := mount(t, 3, 10, 1, 0)
	if _, err := fsys.Open("no/such/file.jpg"); err == nil {
		t.Error("open of missing file succeeded")
	}
	if _, err := fsys.Stat("nope.jpg"); err == nil {
		t.Error("stat of missing file succeeded")
	}
}

func TestReadDirOnFileFails(t *testing.T) {
	fsys, files := mount(t, 3, 10, 1, 0)
	var name string
	for n := range files {
		name = n
	}
	h, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, ok := h.(fs.ReadDirFile); ok {
		t.Error("file handle claims to be a directory")
	}
	// Reading a directory handle fails.
	d, err := fsys.Open("train")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Read(make([]byte, 10)); err == nil {
		t.Error("reading a directory succeeded")
	}
}

func TestShuffleList(t *testing.T) {
	fsys, files := mount(t, 40, 50, 1, 0)
	raw, err := fsys.ShuffleList(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) != len(files) {
		t.Fatalf("shuffle list has %d lines, want %d", len(lines), len(files))
	}
	for _, ln := range lines {
		if _, ok := files[string(ln)]; !ok {
			t.Fatalf("unknown file %q in shuffle list", ln)
		}
	}
}

func TestMultipleBackingClientsShareLoad(t *testing.T) {
	fsys, files := mount(t, 40, 200, 4, 0)
	for name := range files {
		if _, err := fsys.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for _, c := range fsys.cfg.Clients {
		if c.Stats.Gets.Load() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d of 4 backing clients used", used)
	}
}
