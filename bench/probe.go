package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/epoch"
	"diesel/internal/kvstore"
	"diesel/internal/meta"
	"diesel/internal/server"
	"diesel/internal/shuffle"
	"diesel/internal/spill"
	"diesel/internal/wire"
)

// The probe pass runs after the traced window, on the same stack, from
// one goroutine: direct calls into each layer's entry points with inputs
// taken from the workload (its chunks, paths, snapshot). It gives the
// per-call wall time, CPU time and allocations the layer budget is built
// from, for layers that have no seam to record at.

const probeRounds = 3

// probed is the per-call cost of one probe.
type probed struct {
	us     float64 // wall
	cpuUS  float64 // process CPU (user+sys), all goroutines
	allocs float64
	seamUS float64 // wall spent below, in the kvstore and server-facing objstore seams
}

// timeIt calls fn for probeRounds rounds of params.probe each (at most
// maxIters calls in all, in batches so the clock is off the measured
// path) and returns per-call costs. Wall time, allocations and seam time
// are the median round's, so that one GC cycle or writeback burst does
// not set them. CPU is taken over all rounds together: the kernel
// accounts running threads by the tick, a few ms, which a single round
// is too short to average out.
func (e *env) timeIt(maxIters, batch int, fn func(i int) error) (probed, error) {
	if err := fn(0); err != nil { // first call outside the timing: dials, pools, lazy set-up
		return probed{}, err
	}
	e.rec.on.Store(true)
	defer e.rec.on.Store(false)
	var us, allocs, seam []float64
	var cpu time.Duration
	n := 0
	for round := 0; round < probeRounds && n < maxIters; round++ {
		e.rec.reset()
		first := n
		u0 := readUsage()
		start := time.Now()
		for n < maxIters*(round+1)/probeRounds && time.Since(start) < e.p.probe {
			for range batch {
				n++
				if err := fn(n); err != nil {
					return probed{}, err
				}
			}
		}
		wall := time.Since(start)
		u1 := readUsage()
		if n == first {
			continue
		}
		var below []span
		spans, _ := e.rec.snapshot()
		for _, s := range spans {
			if s.Kind >= kKVGet && s.Kind <= kObjOther {
				below = append(below, s)
			}
		}
		f := float64(n - first)
		us = append(us, float64(wall)/1e3/f)
		allocs = append(allocs, float64(u1.mallocs-u0.mallocs)/f)
		seam = append(seam, float64(covered(below, 0, e.rec.now()))/1e3/f)
		cpu += u1.cpu - u0.cpu
	}
	return probed{us: median(us), cpuUS: float64(cpu) / 1e3 / float64(n), allocs: median(allocs), seamUS: median(seam)}, nil
}

const unbounded = 1 << 30

// probes holds every probe result by name, plus the sizes needed to turn
// per-call figures into per-MB or per-file ones.
type probes struct {
	m            map[string]probed
	chunkMB      float64 // encoded size of the probed chunk
	filesInChunk int
	spillDiskPer float64 // spill disk bytes per live byte
	replayMSPerK float64
}

// stubSource serves groups as views into the generated dataset: the
// epoch reader's own cost with nothing below it.
type stubSource struct {
	d    *dataset
	snap *meta.Snapshot
}

func (s stubSource) ReadGroup(_ context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		out[pos-span.Start] = s.d.file(s.d.indexOf(s.snap.FileName(int(plan.Files[pos]))))
	}
	return out, nil
}

// stubReader serves files as views into the generated dataset.
type stubReader struct{ d *dataset }

func (s stubReader) ReadFileContext(_ context.Context, path string) ([]byte, error) {
	return s.d.file(s.d.indexOf(path)), nil
}

// drain reads one whole epoch of plan from src.
func drain(plan *shuffle.Plan, snap *meta.Snapshot, src epoch.Source) error {
	r := epoch.NewReader(plan, snap, src, epoch.WithWindow(epochWindow))
	defer r.Close()
	for {
		if _, err := r.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return r.Err()
			}
			return err
		}
	}
}

func (e *env) probe(dir string) (*probes, error) {
	ps := &probes{m: make(map[string]probed)}
	if disk := e.st.disk; disk != nil {
		// The modeled disk is switched off for the pass: a sleep costs no
		// CPU and would only cut the calls a probe gets in. Nothing else
		// runs now, so the plain field is safe to set.
		disk.Latency = 0
		defer func() { disk.Latency = slowLatency }()
	}
	ctx := context.Background()
	d, snap, st := e.d, e.snap, e.st
	// run times one probe; after the first failure the rest are skipped
	// and probe returns that failure.
	var failed error
	run := func(name string, maxIters, batch int, fn func(i int) error) {
		if failed != nil {
			return
		}
		p, err := e.timeIt(maxIters, batch, fn)
		if err != nil {
			failed = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		ps.m[name] = p
	}

	// A real chunk and one file in it.
	const ci = 0
	cm := snap.Chunks[ci]
	chunkID := cm.ID.String()
	objKey := server.ObjectKey(d.name, chunkID)
	blob, err := st.base.Get(objKey)
	if err != nil {
		return nil, err
	}
	ck, err := chunk.Parse(blob)
	if err != nil {
		return nil, err
	}
	inChunk := snap.FilesInChunk(ci)
	ps.chunkMB = float64(len(blob)) / (1 << 20)
	ps.filesInChunk = len(inChunk)
	fileName := snap.FileName(int(inChunk[0]))
	fm := snap.FileMetaAt(int(inChunk[0]))
	names8 := make([]string, batchFiles)
	keys8 := make([]string, batchFiles)
	for i := range names8 {
		names8[i] = d.paths[(i*977)%d.files()]
		keys8[i] = meta.FileKey(d.name, names8[i])
	}

	// wire: echo round trips at the two frame sizes the read paths use.
	ws := wire.NewServer()
	ws.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ws.Close()
	wc, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	for _, sz := range []struct {
		name string
		n    int
	}{{"wire.1k", 1 << 10}, {"wire.256k", 256 << 10}} {
		payload := d.blob[:sz.n]
		run(sz.name, unbounded, 8, func(int) error {
			f, err := wc.CallBorrowContext(ctx, "echo", payload)
			if err != nil {
				return err
			}
			f.Release()
			return nil
		})
	}

	// chunk: parse (full-payload CRC) and build+seal of the same files.
	run("chunk.parse", unbounded, 4, func(int) error {
		_, err := chunk.Parse(blob)
		return err
	})
	gen := chunk.NewIDGenerator(func() uint32 { return uint32(time.Now().Unix()) })
	now := func() int64 { return time.Now().UnixNano() }
	seal := func() (*chunk.Header, []byte, error) {
		b := chunk.NewBuilder(chunkTarget, gen, now)
		for i := range inChunk {
			data, err := ck.FileAt(i)
			if err != nil {
				return nil, nil, err
			}
			if _, err := b.Add(snap.FileName(int(inChunk[i])), data); err != nil {
				return nil, nil, err
			}
		}
		return b.Seal()
	}
	run("chunk.seal", unbounded, 4, func(int) error {
		_, _, err := seal()
		return err
	})

	// shuffle and the epoch reader over a stub source.
	run("shuffle.plan", unbounded, 1, func(i int) error {
		shuffle.ChunkWisePlan(snap, int64(i), groupSize)
		return nil
	})
	plan := shuffle.ChunkWisePlan(snap, 1, groupSize)
	stub := stubSource{d: d, snap: snap}
	run("epoch.stub", unbounded, 1, func(int) error { return drain(plan, snap, stub) })

	if len(e.peers) > 0 {
		// Where the cache source is in use, its per-file hand-off to a
		// worker pool belongs to the epoch layer too.
		src := epoch.NewCacheSource(stubReader{d}, snap, srcParallel)
		run("epoch.cachesrc", unbounded, 1, func(int) error { return drain(plan, snap, src) })
	}

	// spill: a log of its own, fed the workload's chunk payload.
	if err := ps.probeSpill(run, filepath.Join(dir, "probe-spill"), ck.Payload(), fm); err != nil {
		return nil, err
	}

	// objstore and kvstore, called where the server calls them.
	objects := st.objects
	run("objstore.get", unbounded, 4, func(int) error {
		_, err := objects.Get(objKey)
		return err
	})
	run("objstore.getrange", unbounded, 8, func(int) error {
		_, err := objects.GetRange(objKey, int64(cm.HeaderLen)+int64(fm.Offset), int64(fm.Length))
		return err
	})
	run("kvstore.get", unbounded, 8, func(int) error {
		_, err := st.kv.GetContext(ctx, keys8[0])
		return err
	})
	run("kvstore.mget", unbounded, 8, func(int) error {
		_, err := st.kv.MGetContext(ctx, keys8)
		return err
	})

	// server: direct calls on the core the RPC front-ends share.
	core := st.core
	run("server.getchunk", unbounded, 4, func(int) error {
		_, rel, err := core.GetChunkPooled(ctx, d.name, chunkID)
		if err == nil {
			rel()
		}
		return err
	})
	run("server.getfile", unbounded, 8, func(int) error {
		_, rel, err := core.GetFilePooled(ctx, d.name, fileName)
		if err == nil {
			rel()
		}
		return err
	})
	run("server.getfiles8", unbounded, 4, func(int) error {
		_, err := core.GetFilesContext(ctx, d.name, names8)
		return err
	})
	run("server.stat", unbounded, 8, func(int) error {
		_, err := core.StatContext(ctx, d.name, fileName)
		return err
	})
	// Ingest needs a fresh chunk ID per call, so the chunks are sealed
	// beforehand and the probe is bounded by how many there are.
	const probeDataset = "probe"
	const sealed = 48
	encs := make([][]byte, sealed+1)
	hdrs := make([]*chunk.Header, sealed+1)
	for i := range encs {
		if hdrs[i], encs[i], err = seal(); err != nil {
			return nil, err
		}
	}
	run("server.ingest", sealed, 1, func(i int) error {
		_, err := core.Ingest(probeDataset, encs[i])
		return err
	})
	if err := core.DeleteDataset(probeDataset); err != nil {
		return nil, err
	}
	run("kvstore.mset", sealed, 1, func(i int) error {
		pairs := meta.PairsForChunk(probeDataset, hdrs[i], uint64(len(encs[i])))
		kvs := make([]kvstore.KV, len(pairs))
		for j, p := range pairs {
			kvs[j] = kvstore.KV{Key: p.Key, Value: p.Value}
		}
		return st.kv.MSet(kvs)
	})
	if err := core.DeleteDataset(probeDataset); err != nil {
		return nil, err
	}

	// client: the same calls through a connection and the servers' RPC
	// front-ends. The handle has no snapshot, so Stat is a server call.
	pc, err := st.connect(d.name, 9, "", "")
	if err != nil {
		return nil, err
	}
	defer pc.Close()
	pds := pc.DefaultDataset()
	run("client.getchunk", unbounded, 4, func(int) error {
		_, err := pds.GetChunk(ctx, chunkID)
		return err
	})
	run("client.getdirect", unbounded, 8, func(int) error {
		_, err := pds.GetDirect(ctx, fileName)
		return err
	})
	run("client.getbatch", unbounded, 4, func(int) error {
		_, err := pds.GetBatch(ctx, names8)
		return err
	})
	run("client.stat", unbounded, 8, func(int) error {
		_, err := pds.Stat(fileName)
		return err
	})
	wds, err := pc.Dataset(probeDataset)
	if err != nil {
		return nil, err
	}
	run("client.ingest", sealed, 1, func(i int) error {
		for j := range inChunk {
			data, err := ck.FileAt(j)
			if err != nil {
				return err
			}
			if err := wds.Put(fmt.Sprintf("p%04d/%s", i, snap.FileName(int(inChunk[j]))), data); err != nil {
				return err
			}
		}
		return wds.Flush()
	})
	if err := wds.DeleteDataset(); err != nil {
		return nil, err
	}

	// dcache: a file this master owns against one a remote master owns.
	if len(e.peers) > 0 {
		p0 := e.peers[0]
		owned := make(map[int]bool)
		for _, c := range p0.OwnedChunks() {
			owned[c] = true
		}
		var local, remote string
		for c := 0; c < len(snap.Chunks) && (local == "" || remote == ""); c++ {
			name := snap.FileName(int(snap.FilesInChunk(c)[0]))
			if owned[c] && local == "" {
				local = name
			} else if !owned[c] && remote == "" {
				remote = name
			}
		}
		for _, pr := range []struct {
			name, path string
			batch      int
		}{{"dcache.local", local, 1024}, {"dcache.peer", remote, 8}} {
			if pr.path == "" {
				continue
			}
			// A few reads first, so a spilled chunk is back in RAM.
			for range 4 {
				if _, err := p0.ReadFileViewContext(ctx, pr.path); err != nil {
					return nil, err
				}
			}
			run(pr.name, unbounded, pr.batch, func(int) error {
				_, err := p0.ReadFileViewContext(ctx, pr.path)
				return err
			})
		}
	}
	return ps, failed
}

// probeSpill times a spill log's append, ranged read, whole read and
// manifest replay.
func (ps *probes) probeSpill(run func(string, int, int, func(int) error),
	dir string, payload []byte, fm meta.FileMeta) error {
	const entries = 96
	lg, _, err := spill.Open(spill.Config{Dir: dir})
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("bench\x00chunk%05d", i) }
	run("spill.add", entries, 1, func(i int) error {
		_, err := lg.Add(key(i), payload)
		return err
	})
	n := max(lg.Len(), 1)
	run("spill.readat", unbounded, 8, func(i int) error {
		_, _, err := lg.ReadAt(key(i%n), int64(fm.Offset), int64(fm.Length))
		return err
	})
	run("spill.get", unbounded, 4, func(i int) error {
		_, err := lg.Get(key(i % n))
		return err
	})
	stt := lg.Stats()
	if stt.LiveBytes > 0 {
		ps.spillDiskPer = float64(stt.DiskBytes) / float64(stt.LiveBytes)
	}
	if err := lg.Close(); err != nil {
		return err
	}
	// Replay cost is per manifest record: a second log of many small
	// entries, reopened a few times.
	const small = 2048
	rdir := dir + "-replay"
	lg, _, err = spill.Open(spill.Config{Dir: rdir})
	if err != nil {
		return err
	}
	for i := range small {
		if _, err := lg.Add(key(i), payload[:4<<10]); err != nil {
			lg.Close()
			return err
		}
	}
	if err := lg.Close(); err != nil {
		return err
	}
	var opens []float64
	for range 5 {
		t0 := time.Now()
		lg, rec, err := spill.Open(spill.Config{Dir: rdir})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		if rec.Entries != small {
			lg.Close()
			return fmt.Errorf("spill replay recovered %d of %d entries", rec.Entries, small)
		}
		if err := lg.Close(); err != nil {
			return err
		}
	}
	ps.replayMSPerK = median(opens) / (small / 1000.0)
	return nil
}
