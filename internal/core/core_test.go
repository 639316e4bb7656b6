package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"diesel/internal/dcache"
	"diesel/internal/objstore"
	"diesel/internal/trace"
)

func deploy(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestDeployDefaults(t *testing.T) {
	d := deploy(t, Config{})
	if len(d.ServerAddrs()) != 1 {
		t.Errorf("servers = %d", len(d.ServerAddrs()))
	}
	if len(d.KVServers()) != 2 {
		t.Errorf("kv nodes = %d", len(d.KVServers()))
	}
	if d.RegistryAddr() == "" {
		t.Error("registry not started")
	}
	if d.Registry() == nil || d.Server() == nil || d.KVCluster() == nil {
		t.Error("component accessors returned nil")
	}
	if n := d.KVCluster().NodeCount(); n != 2 {
		t.Errorf("KV cluster has %d nodes", n)
	}
}

func TestEndToEndWriteReadThroughDeployment(t *testing.T) {
	d := deploy(t, Config{KVNodes: 3, DieselServers: 2})
	spec := trace.Spec{Name: "e2e", NumFiles: 150, Classes: 5, MeanFileSize: 600, SizeSpread: 0.4, Seed: 8}

	err := trace.Write(spec, func(w int) (trace.Putter, error) {
		c, err := d.NewClient("e2e", w)
		if err != nil {
			return nil, err
		}
		return c.DefaultDataset(), nil
	}, 4)
	if err != nil {
		t.Fatal(err)
	}

	reader, err := d.NewClient("e2e", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	order := make([]int, spec.NumFiles)
	for i := range order {
		order[i] = i
	}
	if err := trace.ReadOrder(spec, func(int) (trace.Getter, error) { return reader.DefaultDataset(), nil }, 3, order); err != nil {
		t.Fatal(err)
	}
	snap, err := reader.DefaultDataset().DownloadSnapshot()
	if err != nil || snap.NumFiles() != spec.NumFiles {
		t.Fatalf("snapshot = %v, %v", snap, err)
	}
}

func TestStartTaskFullPipeline(t *testing.T) {
	d := deploy(t, Config{})
	spec := trace.Spec{Name: "task", NumFiles: 120, Classes: 4, MeanFileSize: 400, Seed: 5}
	w, err := d.NewClient("task", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.NumFiles {
		if err := w.DefaultDataset().Put(spec.FileName(i), spec.FileData(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	task, err := d.StartTask(TaskConfig{
		Dataset: "task", Nodes: 2, ClientsPerNode: 2, Policy: dcache.OnDemand,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer task.Close()

	if len(task.Clients) != 4 || len(task.Peers) != 4 {
		t.Fatalf("task size %d/%d", len(task.Clients), len(task.Peers))
	}
	masters := 0
	for _, p := range task.Peers {
		if p.IsMaster() {
			masters++
		}
	}
	if masters != 2 {
		t.Errorf("masters = %d, want 2 (one per node)", masters)
	}

	// Shuffled epoch through the cache, verified.
	plan, err := task.Clients[0].DefaultDataset().ShufflePlan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	order := plan.Paths(task.Clients[0].DefaultDataset().Snapshot())
	for _, path := range order {
		b, err := task.Clients[3].DefaultDataset().Get(context.Background(), path)
		if err != nil {
			t.Fatalf("Get(%q): %v", path, err)
		}
		if len(b) != spec.MeanFileSize {
			t.Fatalf("file %q = %d bytes", path, len(b))
		}
	}
	var hits uint64
	for _, p := range task.Peers {
		hits += p.Stats.LocalHits.Load() + p.Stats.PeerReads.Load()
	}
	if hits == 0 {
		t.Error("task reads bypassed the distributed cache")
	}
}

func TestDeployWithDiskAndSSDTier(t *testing.T) {
	d := deploy(t, Config{
		ObjStoreDir:   t.TempDir(),
		SSDCacheBytes: 64 << 10,
		Throttle:      &objstore.Throttled{Latency: 200 * time.Microsecond},
	})
	cl, err := d.NewClient("ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	content := bytes.Repeat([]byte("x"), 2000)
	for i := range 10 {
		if err := cl.DefaultDataset().Put(fmt.Sprintf("f%02d", i), content); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	// A batched read merges into a whole-chunk fetch, which promotes the
	// chunk into the SSD tier; the second batch hits it.
	paths := make([]string, 10)
	for i := range paths {
		paths[i] = fmt.Sprintf("f%02d", i)
	}
	if _, err := cl.DefaultDataset().GetBatch(context.Background(), paths); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DefaultDataset().GetBatch(context.Background(), paths); err != nil {
		t.Fatal(err)
	}
	if d.tiered.HitCount() == 0 {
		t.Error("SSD tier never hit")
	}
}

func TestTaskValidation(t *testing.T) {
	d := deploy(t, Config{})
	if _, err := d.StartTask(TaskConfig{Dataset: "x"}); err == nil {
		t.Error("zero-node task accepted")
	}
}
