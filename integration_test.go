package diesel

// End-to-end integration test: the full networked pipeline a DLT job
// exercises, every component over real loopback TCP — write, snapshot,
// distributed cache, chunk-wise shuffled epochs, FUSE reads, failure
// injection on the metadata database and a cache master, and recovery.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"sync"
	"testing"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/fuselite"
	"diesel/internal/lustre"
	"diesel/internal/meta"
	"diesel/internal/shuffle"
	"diesel/internal/trace"
	"diesel/internal/train"
)

func TestEndToEndTrainingPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dep, err := core.Deploy(core.Config{KVNodes: 3, DieselServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// 1. Data preparation: concurrent writers, verified contents.
	spec := trace.Spec{Name: "e2e", NumFiles: 600, Classes: 12, MeanFileSize: 2048, SizeSpread: 0.5, Seed: 13}
	if err := trace.Write(spec, func(w int) (trace.Putter, error) {
		c, err := dep.NewClient(spec.Name, 100+w)
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 4); err != nil {
		t.Fatal(err)
	}

	// 2. DLT task: 3 nodes × 2 I/O workers, oneshot cache.
	task, err := dep.StartTask(core.TaskConfig{
		Dataset: spec.Name, Nodes: 3, ClientsPerNode: 2, Policy: dcache.Oneshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer task.Close()
	for _, p := range task.Peers {
		if p.IsMaster() {
			if err := p.LoadOwned(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// 3. Two chunk-wise shuffled epochs with different seeds, all workers
	//    reading their stride, every byte verified.
	snap := task.Clients[0].DefaultDataset().Snapshot()
	for epoch := range 2 {
		plan := shuffle.ChunkWisePlan(snap, int64(epoch), 3)
		order := make([]int, len(plan.Files))
		for i, fi := range plan.Files {
			var idx int
			name := snap.FileName(int(fi))
			if _, err := parseIndex(name, &idx); err != nil {
				t.Fatalf("cannot parse %q: %v", name, err)
			}
			order[i] = idx
		}
		if err := trace.ReadOrder(spec, func(w int) (trace.Getter, error) {
			return task.Clients[w%len(task.Clients)].DefaultDataset(), nil
		}, len(task.Clients), order); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}

	// 4. FUSE view over a task client: walk + read.
	fsys, err := fuselite.Mount(fuselite.Config{Clients: []*client.Client{task.Clients[1]}})
	if err != nil {
		t.Fatal(err)
	}
	walked := 0
	err = fs.WalkDir(fsys, "train", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			walked++
		}
		return nil
	})
	if err != nil || walked != spec.NumFiles {
		t.Fatalf("FUSE walk: %d files, %v", walked, err)
	}
	b, err := fsys.ReadFile(spec.FileName(7))
	if err != nil || spec.Verify(7, b) != nil {
		t.Fatalf("FUSE read: %v", err)
	}

	// 5. Failure injection: wipe the metadata database entirely, recover
	//    from chunks, and keep reading (new client, fresh snapshot).
	for _, kv := range dep.KVServers() {
		kv.Wipe()
	}
	if _, err := dep.Server().RecoverMetadata(spec.Name, 0); err != nil {
		t.Fatal(err)
	}
	fresh, err := dep.NewClient(spec.Name, 999)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.DefaultDataset().DownloadSnapshot(); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.DefaultDataset().Get(context.Background(), spec.FileName(123))
	if err != nil || spec.Verify(123, got) != nil {
		t.Fatalf("post-recovery read: %v", err)
	}

	// 6. Kill a cache master; surviving workers still read everything.
	var dead *dcache.Peer
	for _, p := range task.Peers {
		if p.IsMaster() {
			dead = p
		}
	}
	dead.Close()
	for i := 0; i < spec.NumFiles; i += 37 {
		b, err := task.Clients[0].DefaultDataset().Get(context.Background(), spec.FileName(i))
		if err != nil {
			t.Fatalf("read after master death: %v", err)
		}
		if err := spec.Verify(i, b); err != nil {
			t.Fatal(err)
		}
	}
}

// parseIndex extracts the trailing file index from a trace file name
// (train/cNNNN/imgNNNNNNN.bin).
func parseIndex(name string, out *int) (int, error) {
	var class int
	return fmt.Sscanf(name, "train/c%04d/img%07d.bin", &class, out)
}

// TestSnapshotDistributionViaSharedFS covers §4.1.3's operational note:
// "users can save snapshots in a distributed file system (e.g., Lustre),
// where all nodes can access them concurrently" — the snapshot is stored
// once in the shared-FS model and loaded concurrently by many clients.
func TestSnapshotDistributionViaSharedFS(t *testing.T) {
	dep, err := core.Deploy(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	spec := trace.Spec{Name: "ds", NumFiles: 200, Classes: 4, MeanFileSize: 512, Seed: 4}
	if err := trace.Write(spec, func(w int) (trace.Putter, error) {
		c, err := dep.NewClient("ds", w)
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 2); err != nil {
		t.Fatal(err)
	}
	builder, err := dep.NewClient("ds", 50)
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	snap, err := builder.DefaultDataset().DownloadSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	shared := lustre.New(lustre.Config{MDTs: 2, OSTs: 4, DNE: lustre.DNE1})
	if err := shared.Create("snapshots/ds.snap", snap.Encode()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := shared.Read("snapshots/ds.snap")
			if err != nil {
				errs <- err
				return
			}
			s2, err := meta.DecodeSnapshot(b)
			if err != nil {
				errs <- err
				return
			}
			if s2.NumFiles() != spec.NumFiles {
				errs <- fmt.Errorf("node loaded %d files", s2.NumFiles())
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestTrainModelFromDieselStorage is the end-to-end capstone: the
// training samples themselves are stored in DIESEL as small files, and a
// real model is trained by streaming epochs through the full stack —
// chunk-wise shuffle → epoch.Reader pipeline + train.EpochLoader → task-grained
// distributed cache → DIESEL server → chunked object storage — decoding
// sample bytes on the way. Accuracy proves every byte arrived intact and
// in a usable order.
func TestTrainModelFromDieselStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const (
		dim     = 8
		classes = 4
		samples = 1200
	)
	ds := train.MakeClusters(samples, dim, classes, 0.5, 11)

	// Encode each sample as one file: dim float32s + 1 label byte.
	encode := func(i int) []byte {
		b := make([]byte, dim*4+1)
		for j, v := range ds.X[i] {
			binary.LittleEndian.PutUint32(b[j*4:], math.Float32bits(v))
		}
		b[dim*4] = byte(ds.Y[i])
		return b
	}

	dep, err := core.Deploy(core.Config{KVNodes: 2, DieselServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	w, err := dep.NewClient("samples", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		// Class-sorted names in write order: the adversarial layout.
		if err := w.DefaultDataset().Put(fmt.Sprintf("c%d/s%06d", ds.Y[i], i), encode(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	task, err := dep.StartTask(core.TaskConfig{
		Dataset: "samples", Nodes: 2, ClientsPerNode: 2, Policy: dcache.Oneshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer task.Close()
	cl := task.Clients[0]
	snap := cl.DefaultDataset().Snapshot()

	m := train.NewMLP(dim, 16, classes, 7)
	decoded := &train.SynthDataset{Classes: classes, Dim: dim}
	decodedIdx := map[string]int32{}
	for ep := range 6 {
		plan, err := cl.DefaultDataset().ShufflePlan(int64(ep), 3)
		if err != nil {
			t.Fatal(err)
		}
		loader := train.NewEpochLoader(epoch.NewReader(plan, snap,
			epoch.NewCacheSource(task.Peers[0], snap, 4), epoch.WithWindow(2)))
		for {
			b, ok, err := loader.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			batch := make([]int32, 0, len(b.Paths))
			for j, path := range b.Paths {
				raw := b.Data[j]
				if len(raw) != dim*4+1 {
					t.Fatalf("sample %q has %d bytes", path, len(raw))
				}
				idx, seen := decodedIdx[path]
				if !seen {
					x := make([]float32, dim)
					for k := range x {
						x[k] = math.Float32frombits(binary.LittleEndian.Uint32(raw[k*4:]))
					}
					idx = int32(len(decoded.Y))
					decoded.X = append(decoded.X, x)
					decoded.Y = append(decoded.Y, int(raw[dim*4]))
					decodedIdx[path] = idx
				}
				batch = append(batch, idx)
			}
			m.TrainBatch(decoded, batch, 0.15)
		}
		loader.Close()
	}
	if len(decoded.Y) != samples {
		t.Fatalf("decoded %d of %d samples", len(decoded.Y), samples)
	}
	if snap.NumFiles() != samples {
		t.Fatalf("snapshot has %d files", snap.NumFiles())
	}
	acc := train.TopKAccuracy(m, decoded, 1)
	if acc < 0.9 {
		t.Errorf("model trained through the full stack reached top-1 = %.3f", acc)
	}
	t.Logf("trained from DIESEL storage: top-1 = %.3f over %d samples, 6 epochs", acc, samples)
}
