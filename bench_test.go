package diesel

// Repository-level benchmarks: one Benchmark per table/figure of the
// paper (measuring the *real* implementations at laptop scale — the
// simulated cluster-scale counterparts live in cmd/diesel-bench), plus
// the ablation benchmarks DESIGN.md §5 calls out.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/fuselite"
	"diesel/internal/kvstore"
	"diesel/internal/lustre"
	"diesel/internal/memcached"
	"diesel/internal/meta"
	"diesel/internal/objstore"
	"diesel/internal/server"
	"diesel/internal/shuffle"
	"diesel/internal/train"
)

// --- shared fixtures ---

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func newGen() *chunk.IDGenerator {
	return chunk.NewIDGeneratorAt([6]byte{1, 2, 3, 4, 5, 6}, 1, func() uint32 { return 1000 })
}

// localServer builds an in-process DIESEL server with a dataset of n
// files of the given size loaded.
func localServer(b *testing.B, dataset string, n, fileSize, chunkTarget int) (*server.Server, []string) {
	b.Helper()
	return loadedServer(b, objstore.NewMemory(), dataset, n, fileSize, chunkTarget)
}

// loadedServer is localServer over an arbitrary object store.
func loadedServer(b *testing.B, store objstore.Store, dataset string, n, fileSize, chunkTarget int) (*server.Server, []string) {
	b.Helper()
	s := server.New(kvstore.NewLocal(), store, func() int64 { return time.Now().UnixNano() })
	gen := newGen()
	builder := chunk.NewBuilder(chunkTarget, gen, func() int64 { return 1 })
	names := make([]string, n)
	data := randBytes(fileSize, 5)
	for i := range n {
		names[i] = fmt.Sprintf("c%03d/f%06d.bin", i%100, i)
		full, err := builder.Add(names[i], data)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			_, enc, _ := builder.Seal()
			if _, err := s.Ingest(dataset, enc); err != nil {
				b.Fatal(err)
			}
		}
	}
	if builder.Count() > 0 {
		_, enc, _ := builder.Seal()
		if _, err := s.Ingest(dataset, enc); err != nil {
			b.Fatal(err)
		}
	}
	return s, names
}

// --- Table 2: chunk size amortises per-file cost ---

// BenchmarkTable2ReadBandwidth measures real read throughput from a disk
// object store as the object size varies — the effect Table 2 reports:
// per-object overhead dominates small reads, bandwidth dominates large.
func BenchmarkTable2ReadBandwidth(b *testing.B) {
	for _, kb := range []int{4, 64, 1024, 4096} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			dir := b.TempDir()
			disk, err := objstore.NewDisk(dir)
			if err != nil {
				b.Fatal(err)
			}
			const objects = 32
			data := randBytes(kb<<10, 1)
			for i := range objects {
				disk.Put(fmt.Sprintf("o%04d", i), data)
			}
			b.SetBytes(int64(kb) << 10)
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				if _, err := disk.Get(fmt.Sprintf("o%04d", i%objects)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: write path comparison ---
//
// These three benches exercise the real write paths at different
// transport levels (DIESEL ingest in-process, memcached over loopback
// TCP, the Lustre model's in-process bookkeeping), so their numbers are
// not directly comparable to each other; the apples-to-apples Figure 9
// comparison with modeled cluster hardware is `diesel-bench -exp fig9`.

// BenchmarkFig9WriteDiesel writes 4 KB files through the real chunk
// builder + ingest path.
func BenchmarkFig9WriteDiesel(b *testing.B) {
	s := server.NewLocalStack()
	builder := chunk.NewBuilder(chunk.DefaultTargetSize, newGen(), func() int64 { return 1 })
	data := randBytes(4096, 2)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		full, err := builder.Add(fmt.Sprintf("f%09d", i), data)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			_, enc, _ := builder.Seal()
			if _, err := s.Ingest("ds", enc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig9WriteMemcached writes 4 KB objects one blocking RPC each
// through the real memcached cluster — the baseline's per-op write cost.
func BenchmarkFig9WriteMemcached(b *testing.B) {
	srv, err := memcached.NewServer("127.0.0.1:0", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	r, err := memcached.NewRouter([]string{srv.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	data := randBytes(4096, 3)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if err := r.Set(fmt.Sprintf("f%09d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9WriteLustre writes 4 KB files through the Lustre model's
// create path (MDS + lock + OSS per file).
func BenchmarkFig9WriteLustre(b *testing.B) {
	c := lustre.New(lustre.Config{MDTs: 2, OSTs: 4, DNE: lustre.DNE1})
	data := randBytes(4096, 4)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if err := c.Create(fmt.Sprintf("d%03d/f%09d", i%50, i), data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10a/10b: metadata paths ---

// BenchmarkFig10aServerStat measures stat through the server + KV path
// (the pre-snapshot metadata cost of Figure 10a).
func BenchmarkFig10aServerStat(b *testing.B) {
	s, names := localServer(b, "ds", 2000, 256, 1<<16)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if _, err := s.StatContext(context.Background(), "ds", names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10bSnapshotQPS measures a stat against a loaded metadata
// snapshot — the real per-op cost behind Figure 10b's linear scaling
// (~1.8 µs/op in the paper's calibration; see cluster.Params).
func BenchmarkFig10bSnapshotQPS(b *testing.B) {
	s, names := localServer(b, "ds", 20000, 64, 1<<18)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if _, err := snap.Stat(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10cWalkSnapshot is the ls -lR analogue: a full recursive
// walk with sizes over a loaded snapshot.
func BenchmarkFig10cWalkSnapshot(b *testing.B) {
	s, _ := localServer(b, "ds", 20000, 64, 1<<18)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		n := 0
		snap.Walk("", func(string, meta.FileMeta) bool { n++; return true })
		if n != 20000 {
			b.Fatal("walk incomplete")
		}
	}
}

// --- Figure 11a: read path comparison (real loopback stacks) ---

// BenchmarkFig11aReadAPI reads 4 KB files through the full networked
// stack: libDIESEL → task-grained cache → peer/server.
func BenchmarkFig11aReadAPI(b *testing.B) {
	dep, task, names := benchTask(b, 512, 4096)
	defer dep.Close()
	defer task.Close()
	cl := task.Clients[1]
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if _, err := cl.DefaultDataset().Get(context.Background(), names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11aReadFUSE reads the same files through the FUSE layer.
func BenchmarkFig11aReadFUSE(b *testing.B) {
	dep, task, names := benchTask(b, 512, 4096)
	defer dep.Close()
	defer task.Close()
	fsys, err := fuselite.Mount(fuselite.Config{Clients: []*client.Client{task.Clients[1]}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		if _, err := fsys.ReadFile(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTask(b *testing.B, n, fileSize int) (*core.Deployment, *core.Task, []string) {
	b.Helper()
	dep, err := core.Deploy(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	w, err := dep.NewClient("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, n)
	data := randBytes(fileSize, 6)
	for i := range n {
		names[i] = fmt.Sprintf("c%02d/f%05d", i%10, i)
		if err := w.DefaultDataset().Put(names[i], data); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	task, err := dep.StartTask(core.TaskConfig{
		Dataset: "bench", Nodes: 2, ClientsPerNode: 2, Policy: dcache.Oneshot,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range task.Peers {
		if p.IsMaster() {
			p.LoadOwned()
		}
	}
	return dep, task, names
}

// --- Figure 11b: cache load at chunk vs file granularity ---

// BenchmarkFig11bChunkLoad measures loading a dataset partition into the
// cache chunk-by-chunk (DIESEL's recovery path).
func BenchmarkFig11bChunkLoad(b *testing.B) {
	dep, task, _ := benchTask(b, 1024, 2048)
	defer dep.Close()
	defer task.Close()
	var master *dcache.Peer
	for _, p := range task.Peers {
		if p.IsMaster() {
			master = p
			break
		}
	}
	b.ResetTimer()
	for b.Loop() {
		master.DropAll()
		if err := master.LoadOwned(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11bFileLoad measures filling the memcached baseline
// file-by-file — the slow recovery of Figure 11b.
func BenchmarkFig11bFileLoad(b *testing.B) {
	srv, err := memcached.NewServer("127.0.0.1:0", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	r, err := memcached.NewRouter([]string{srv.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	const files = 512
	data := randBytes(2048, 7)
	b.ResetTimer()
	for b.Loop() {
		for i := range files {
			if err := r.Set(fmt.Sprintf("f%05d", i), data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 12: chunk-wise shuffle read efficiency ---

// BenchmarkFig12ReadBandwidth reads a full epoch in chunk-wise shuffled
// order through the request executor, measuring delivered bytes.
func BenchmarkFig12ReadBandwidth(b *testing.B) {
	s, _ := localServer(b, "ds", 4096, 1024, 64<<10)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		b.Fatal(err)
	}
	plan := shuffle.ChunkWisePlan(snap, 1, 8)
	b.SetBytes(int64(snap.TotalBytes()))
	b.ResetTimer()
	for b.Loop() {
		// Read group by group, batched — the access pattern the shuffle
		// produces.
		for _, g := range plan.Groups {
			paths := make([]string, 0, g.End-g.Start)
			for _, fi := range plan.Files[g.Start:g.End] {
				paths = append(paths, snap.FileName(int(fi)))
			}
			if _, err := s.GetFilesContext(context.Background(), "ds", paths); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkShuffleGenerate measures generating a chunk-wise epoch order
// for an ImageNet-scale file count — the §4.3 claim that the shuffle's
// footprint is tiny.
func BenchmarkShuffleGenerate(b *testing.B) {
	sb := meta.NewSnapshotBuilder("big", 1)
	const files = 1_281_167
	const perChunk = 37 // ≈4MB / 110KB
	for c := 0; c*perChunk < files; c++ {
		var id chunk.ID
		id[0], id[1], id[2] = byte(c>>16), byte(c>>8), byte(c)
		ci := sb.AddChunk(id, 4<<20, 128)
		for j := 0; j < perChunk && c*perChunk+j < files; j++ {
			i := c*perChunk + j
			sb.AddFile(fmt.Sprintf("f/%07d", i), meta.FileMeta{ChunkIdx: ci, Index: uint32(j), Length: 110 << 10})
		}
	}
	snap := sb.Build()
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		p := shuffle.ChunkWisePlan(snap, int64(i), 500)
		if p.NumFiles() != files {
			b.Fatal("bad plan")
		}
	}
}

// --- Figure 13: training-step cost of the real models ---

// BenchmarkFig13TrainEpoch measures one training epoch of the Figure 13
// MLP under the chunk-wise order.
func BenchmarkFig13TrainEpoch(b *testing.B) {
	ds := train.MakeClusters(2000, 16, 10, 1.8, 1)
	snap := train.DatasetSnapshot(ds.N(), 50)
	cw := train.ChunkWise{Snap: snap, GroupSize: 15, Seed: 1}
	m := train.NewMLP(16, 24, 10, 1)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		train.TrainEpoch(m, ds, cw.EpochOrder(i), 32, 0.2)
	}
}

// --- recovery (§4.1.2) ---

// BenchmarkRecoveryScan measures rebuilding the metadata database from
// self-contained chunks (scenario b).
func BenchmarkRecoveryScan(b *testing.B) {
	obj := objstore.NewMemory()
	kv := kvstore.NewLocal()
	s := server.New(kv, obj, func() int64 { return time.Now().UnixNano() })
	builder := chunk.NewBuilder(64<<10, newGen(), func() int64 { return 1 })
	data := randBytes(512, 8)
	for i := range 2000 {
		full, _ := builder.Add(fmt.Sprintf("f%06d", i), data)
		if full {
			_, enc, _ := builder.Seal()
			s.Ingest("ds", enc)
		}
	}
	if builder.Count() > 0 {
		_, enc, _ := builder.Seal()
		s.Ingest("ds", enc)
	}
	b.ResetTimer()
	for b.Loop() {
		kv.FlushAll()
		if _, err := s.RecoverMetadata("ds", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationChunkSize sweeps the chunk size: larger chunks
// amortise per-chunk costs on the write path but raise read
// amplification for single-file reads.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, mb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dMB", mb), func(b *testing.B) {
			s := server.NewLocalStack()
			builder := chunk.NewBuilder(mb<<20, newGen(), func() int64 { return 1 })
			data := randBytes(4096, 9)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; b.Loop(); i++ {
				full, _ := builder.Add(fmt.Sprintf("f%09d", i), data)
				if full {
					_, enc, _ := builder.Seal()
					if _, err := s.Ingest("ds", enc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationExecutorMerge compares the request executor with and
// without sort-and-merge on a full-dataset batch, against two backends:
// an in-memory store (where merging only changes copying and merge-off
// can win) and a latency-bound store modelling a networked object store
// at 100 µs per request — where merging collapses hundreds of range
// reads into a few chunk reads and wins by an order of magnitude. The
// executor exists for the second case.
func BenchmarkAblationExecutorMerge(b *testing.B) {
	backends := []struct {
		name  string
		store func() objstore.Store
		files int
	}{
		{"mem", func() objstore.Store { return objstore.NewMemory() }, 1024},
		{"latency100us", func() objstore.Store {
			return &objstore.Throttled{Base: objstore.NewMemory(), Latency: 100 * time.Microsecond}
		}, 128},
	}
	for _, be := range backends {
		for _, merge := range []bool{true, false} {
			name := be.name + "/merge-off"
			if merge {
				name = be.name + "/merge-on"
			}
			b.Run(name, func(b *testing.B) {
				s, names := loadedServer(b, be.store(), "ds", be.files, 1024, 64<<10)
				s.Exec.Merge = merge
				b.SetBytes(int64(len(names)) * 1024)
				b.ResetTimer()
				for b.Loop() {
					if _, err := s.GetFilesContext(context.Background(), "ds", names); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationSnapshotVsServer compares the two metadata paths
// directly (the essence of Figure 10a vs 10b).
func BenchmarkAblationSnapshotVsServer(b *testing.B) {
	s, names := localServer(b, "ds", 4096, 128, 1<<18)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, err := snap.Stat(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("server", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, err := s.StatContext(context.Background(), "ds", names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGroupSize sweeps the chunk-wise shuffle group size:
// bigger groups shuffle better but need more cache memory.
func BenchmarkAblationGroupSize(b *testing.B) {
	s, _ := localServer(b, "ds", 8192, 256, 32<<10)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				p := shuffle.ChunkWisePlan(snap, int64(i), g)
				if p.NumFiles() != snap.NumFiles() {
					b.Fatal("bad plan")
				}
			}
		})
	}
}

// --- core data-structure benches ---

// BenchmarkChunkBuildSeal measures chunk packing throughput.
func BenchmarkChunkBuildSeal(b *testing.B) {
	data := randBytes(110<<10, 10)
	b.SetBytes(110 << 10)
	gen := newGen()
	builder := chunk.NewBuilder(chunk.DefaultTargetSize, gen, func() int64 { return 1 })
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		full, err := builder.Add(fmt.Sprintf("f%09d", i), data)
		if err != nil {
			b.Fatal(err)
		}
		if full {
			builder.Seal()
		}
	}
}

// BenchmarkChunkParse measures decoding a sealed 4 MB chunk.
func BenchmarkChunkParse(b *testing.B) {
	gen := newGen()
	builder := chunk.NewBuilder(chunk.DefaultTargetSize, gen, func() int64 { return 1 })
	data := randBytes(4096, 11)
	for i := 0; !builder.Full(); i++ {
		builder.Add(fmt.Sprintf("f%06d", i), data)
	}
	_, enc, _ := builder.Seal()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for b.Loop() {
		if _, err := chunk.Parse(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVStoreOps measures the metadata store's raw set/get/scan.
func BenchmarkKVStoreOps(b *testing.B) {
	st := kvstore.NewStore()
	for i := range 10000 {
		st.Set(fmt.Sprintf("k%06d", i), []byte("v"))
	}
	b.Run("get", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			st.Get(fmt.Sprintf("k%06d", i%10000))
		}
	})
	b.Run("set", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			st.Set(fmt.Sprintf("n%09d", i), []byte("v"))
		}
	})
	b.Run("pscan100", func(b *testing.B) {
		for b.Loop() {
			keys, _ := st.ScanPrefix("k0001")
			if len(keys) < 100 {
				b.Fatal("scan short")
			}
		}
	})
}

// BenchmarkSnapshotDecode measures loading a snapshot from its on-disk
// form (the client start-up cost §4.1.3 trades for local metadata).
func BenchmarkSnapshotDecode(b *testing.B) {
	s, _ := localServer(b, "ds", 50000, 64, 1<<20)
	snap, err := s.BuildSnapshot("ds")
	if err != nil {
		b.Fatal(err)
	}
	enc := snap.Encode()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for b.Loop() {
		if _, err := meta.DecodeSnapshot(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochRead streams one chunk-wise shuffled epoch through the
// real stack — libDIESEL RPCs against a deployment whose object store
// models 2 ms of request latency — comparing the synchronous reader
// (window=0, every group fetch exposed) with the pipelined reader
// (window>=2, fetches overlap consumption). The acceptance bar is the
// pipelined configuration sustaining at least 2x the samples/s.
func BenchmarkEpochRead(b *testing.B) {
	dep, err := core.Deploy(core.Config{
		Throttle: &objstore.Throttled{Latency: 2 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	w, err := client.Connect(client.Options{
		User: "bench", Key: "bench",
		Servers: dep.ServerAddrs(), Dataset: "epoch",
		ChunkTarget: 8 << 10, // ~4 files per chunk: many chunks, many groups
	})
	if err != nil {
		b.Fatal(err)
	}
	const files, fileSize = 256, 2048
	data := randBytes(fileSize, 12)
	for i := range files {
		if err := w.DefaultDataset().Put(fmt.Sprintf("c%02d/f%05d", i%8, i), data); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	cl, err := client.Connect(client.Options{
		User: "bench", Key: "bench",
		Servers: dep.ServerAddrs(), Dataset: "epoch",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	snap, err := cl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.SetBytes(files * fileSize)
			for i := 0; b.Loop(); i++ {
				plan, err := cl.DefaultDataset().ShufflePlan(int64(i), 4)
				if err != nil {
					b.Fatal(err)
				}
				r := epoch.NewReader(plan, snap, epoch.NewClientSource(cl.DefaultDataset(), snap, 4),
					epoch.WithWindow(window))
				n := 0
				for {
					if _, err := r.Next(); err != nil {
						break
					}
					n++
				}
				r.Close()
				if r.Err() != nil {
					b.Fatal(r.Err())
				}
				if n != files {
					b.Fatalf("epoch served %d of %d files", n, files)
				}
			}
			b.ReportMetric(float64(files)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkClientGetChunk is one whole-chunk read through the RPC stack —
// server.NewRPC over loopback TCP to client.Dataset.GetChunk, an in-memory
// object store behind it — the fetch unit of the epoch reader and of a
// cache master's load. Its B/op is the gate on staging copies: one chunk
// crossing the process boundary should allocate about one chunk (the
// response payload the caller keeps), and nothing per chunk on the server.
func BenchmarkClientGetChunk(b *testing.B) {
	const chunkSize = 256 << 10
	s, _ := localServer(b, "getchunk", 64, chunkSize/64, chunkSize)
	rpc, err := server.NewRPC(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rpc.Close()
	cl, err := client.Connect(client.Options{
		User: "bench", Key: "bench", Servers: []string{rpc.Addr()}, Dataset: "getchunk",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	snap, err := cl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	id := snap.Chunks[0].ID.String()
	ctx := context.Background()
	b.SetBytes(int64(snap.Chunks[0].Size))
	for b.Loop() {
		blob, err := cl.DefaultDataset().GetChunk(ctx, id)
		if err != nil || uint64(len(blob)) != snap.Chunks[0].Size {
			b.Fatalf("GetChunk = %d bytes, %v; want %d", len(blob), err, snap.Chunks[0].Size)
		}
	}
}

// BenchmarkServerBatchRead is one warm batch read on the path every
// snapshot-less client uses — client.Dataset.GetBatch of 8 files that lie
// in 8 different chunks, on smallReadStack. Its allocs/op is the gate on
// per-member work: the batch should cost its one batch stat (one call per
// KV node) and eight range reads of cached chunks, not a metadata round
// trip per chunk; its B/op is about two copies of the 72 KiB asked for (the
// server's one buffer, lent to the socket, and the response the caller's
// files are windows into), not a chunk.
func BenchmarkServerBatchRead(b *testing.B) {
	st := newSmallReadStack(b)
	ctx := context.Background()
	b.SetBytes(smallReadBatch * smallReadFileSize)
	for b.Loop() { // the first iteration, before the timer, fills the shape cache
		got, err := st.ds.GetBatch(ctx, st.paths)
		if err != nil || len(got) != smallReadBatch {
			b.Fatalf("GetBatch = %d files, %v", len(got), err)
		}
		for i := range got {
			if len(got[i]) != smallReadFileSize {
				b.Fatalf("%s: %d bytes, want %d", st.paths[i], len(got[i]), smallReadFileSize)
			}
		}
	}
	if st := &st.s.Exec.Stats; st.ChunkReads.Load() != 0 || st.RangeReads.Load() == 0 {
		b.Fatalf("%d chunk reads, %d range reads: want one range read per file", st.ChunkReads.Load(), st.RangeReads.Load())
	}
}

// BenchmarkClientIngest is one chunk's trip down the write path of
// Figure 3 — 29 files of 9 KiB through Dataset.Put until the 256 KiB
// builder fills and ships them, server.NewRPC over loopback TCP, an
// in-memory object store behind it. Its B/op is the gate on copies in that
// direction: the client builds in one reused buffer and lends it to the
// socket, the server stores the request body it read, so a chunk crossing
// the process boundary should allocate about one chunk (the stored
// object) on the two sides together.
func BenchmarkClientIngest(b *testing.B) {
	const fileSize, files = 9 << 10, 29 // the 29th file takes the payload past 256 KiB
	s := server.New(kvstore.NewLocal(), objstore.NewMemory(), func() int64 { return time.Now().UnixNano() })
	rpc, err := server.NewRPC(s, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rpc.Close()
	cl, err := client.Connect(client.Options{
		User: "bench", Key: "bench", Servers: []string{rpc.Addr()}, Dataset: "ingest",
		ChunkTarget: 256 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ds := cl.DefaultDataset()
	data := randBytes(fileSize, 5)
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d/f%06d.bin", i%100, i)
	}
	b.SetBytes(fileSize * files)
	for i := 0; b.Loop(); i++ {
		for _, name := range names {
			if err := ds.Put(name, data); err != nil {
				b.Fatal(err)
			}
		}
		if err := ds.Flush(); err != nil { // nothing left to ship: the last Put did
			b.Fatal(err)
		}
		if i%512 == 511 { // a long run must not pile its chunks up in the store
			b.StopTimer()
			if err := ds.DeleteDataset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	if snap, err := s.BuildSnapshot("ingest"); err == nil && snap.NumFiles() == 0 {
		b.Fatalf("nothing was stored: %v", snap)
	}
}

// BenchmarkLoaderEpoch measures the pipelined data loader (Figure 1's
// DataLoader pattern) streaming a full epoch through the task-grained
// cache over loopback TCP.
func BenchmarkLoaderEpoch(b *testing.B) {
	dep, task, names := benchTask(b, 512, 2048)
	defer dep.Close()
	defer task.Close()
	snap := task.Clients[1].DefaultDataset().Snapshot()
	src := epoch.NewCacheSource(task.Peers[1], snap, 8)
	b.SetBytes(int64(len(names)) * 2048)
	b.ResetTimer()
	for i := 0; b.Loop(); i++ {
		plan := shuffle.ChunkWisePlan(snap, int64(i), 2)
		l := train.NewEpochLoader(epoch.NewReader(plan, snap, src, epoch.WithWindow(2)))
		for {
			_, ok, err := l.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		l.Close()
	}
}
