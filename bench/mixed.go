package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/chunk"
	"diesel/internal/client"
	"diesel/internal/meta"
)

const (
	inflightCap = 256 // steady ops in flight before new ones are shed
	batchFiles  = 8
	readBack    = 64
	zipfS       = 1.1
	overLimitMS = 20.0
	// Shares of the measured window: open loop, then closed loop with
	// nproc readers; the rest is closed loop with enough readers to keep
	// every processor busy.
	steadyShare  = 0.5
	closedShare  = 0.2
	ingestName   = "ingest"
	ingestDivide = 8 // the writer's dataset is 1/8 of the read one (2048 files)
	// The writer starts one ingest cycle per period — 4096 files/s, about
	// a third of what it could do flat out. A writer that took every spare
	// cycle would turn any CPU a read-path change frees into more writes.
	writePeriod = 500 * time.Millisecond
)

type opKind uint8

const (
	opGet opKind = iota
	opBatch
	opChunk
	opStat
)

// opMix is get=5, batch=2, chunk=1, stat=2.
var opMix = [10]opKind{opGet, opGet, opGet, opGet, opGet, opBatch, opBatch, opChunk, opStat, opStat}

type readOp struct {
	kind  opKind
	files [batchFiles]int32
}

// mixedState drives mixed_rw: a snapshot-less reader handle (so Stat is a
// server call) and a writer that ingests, reads back and deletes its own
// dataset in a loop.
type mixedState struct {
	d      *dataset
	rd     *clientSeam
	snap   *meta.Snapshot  // chunk IDs and offsets, for picking chunks and checking replies
	metas  []meta.FileMeta // by dataset file index
	perm   []int32         // Zipf rank → file index
	wds    *client.Dataset // the writer's handle, on its own dataset
	ing    *dataset
	rngSeq atomic.Int64
}

// joinMixed connects mixed_rw's reader and writer.
func (e *env) joinMixed() error {
	m := &mixedState{d: e.d}
	e.mixed = m
	// The snapshot comes down on a handle of its own: the reader's must
	// stay without one.
	var err error
	if _, m.snap, err = e.reader(0, "", ""); err != nil {
		return err
	}
	rcl, err := e.st.connect(e.d.name, 1, "", "")
	if err != nil {
		return err
	}
	e.clients = append(e.clients, rcl)
	m.rd = &clientSeam{ds: rcl.DefaultDataset(), rec: e.rec}
	wcl, err := e.st.connect(ingestName, 2, "", "")
	if err != nil {
		return err
	}
	e.clients = append(e.clients, wcl)
	m.wds = wcl.DefaultDataset()
	return nil
}

// prepare builds what the load generators draw from.
func (m *mixedState) prepare(seed int64) error {
	d := m.d
	m.metas = make([]meta.FileMeta, d.files())
	for i, path := range d.paths {
		var err error
		if m.metas[i], err = m.snap.Stat(path); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	m.perm = make([]int32, d.files())
	for i, v := range rng.Perm(d.files()) {
		m.perm[i] = int32(v)
	}
	m.ing = genDataset(ingestName, seed+1, max(d.files()/ingestDivide, readBack))
	return nil
}

// picker draws ops: kinds by the mix, files Zipf(1.1)-popular.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32
}

func (m *mixedState) picker(seed int64) *picker {
	rng := rand.New(rand.NewSource(seed<<8 ^ m.rngSeq.Add(1)))
	return &picker{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(m.perm)-1)), perm: m.perm}
}

func (p *picker) next() readOp {
	op := readOp{kind: opMix[p.rng.Intn(len(opMix))]}
	n := 1
	if op.kind == opBatch {
		n = batchFiles
	}
	for i := range n {
		op.files[i] = p.perm[p.zipf.Uint64()]
	}
	return op
}

// do issues one read op and checks what came back against the stamp.
func (m *mixedState) do(ctx context.Context, op readOp) bool {
	d := m.d
	f := int(op.files[0])
	switch op.kind {
	case opGet:
		b, err := m.rd.GetDirect(ctx, d.paths[f])
		return err == nil && d.checkStamp(f, b)
	case opBatch:
		paths := make([]string, batchFiles)
		for i, fi := range op.files {
			paths[i] = d.paths[fi]
		}
		bs, err := m.rd.GetBatch(ctx, paths)
		if err != nil || len(bs) != batchFiles {
			return false
		}
		for i, fi := range op.files {
			if !d.checkStamp(int(fi), bs[i]) {
				return false
			}
		}
		return true
	case opChunk:
		fm := m.metas[f]
		cm := m.snap.Chunks[fm.ChunkIdx]
		b, err := m.rd.GetChunk(ctx, cm.ID.String())
		if err != nil || uint64(len(b)) != cm.Size {
			return false
		}
		off := uint64(cm.HeaderLen) + fm.Offset
		return d.checkStamp(f, b[off:off+fm.Length])
	default:
		st, err := m.rd.Stat(ctx, d.paths[f])
		return err == nil && st.Size == uint64(d.size(f))
	}
}

// verify is the set-up content pass: every chunk is fetched whole,
// CRC-checked by chunk.Parse and every file in it hashed; then each op
// kind is exercised once per a few hundred files with full hashing.
func (m *mixedState) verify() error {
	ctx := context.Background()
	d := m.d
	seen := 0
	for ci, cm := range m.snap.Chunks {
		b, err := m.rd.GetChunk(ctx, cm.ID.String())
		if err != nil {
			return err
		}
		ck, err := chunk.Parse(b)
		if err != nil {
			return fmt.Errorf("chunk %d: %w", ci, err)
		}
		for _, fi := range m.snap.FilesInChunk(ci) {
			fm := m.snap.FileMetaAt(int(fi))
			data, err := ck.Window(fm.Offset, fm.Length)
			if err != nil {
				return err
			}
			if !d.checkFull(d.indexOf(m.snap.FileName(int(fi))), data) {
				return fmt.Errorf("chunk %d: file %s differs from what was put", ci, m.snap.FileName(int(fi)))
			}
			seen++
		}
	}
	if seen != d.files() {
		return fmt.Errorf("content pass saw %d of %d files", seen, d.files())
	}
	for f := 0; f < d.files(); f += 256 {
		b, err := m.rd.GetDirect(ctx, d.paths[f])
		if err != nil || !d.checkFull(f, b) {
			return fmt.Errorf("GetDirect %s: wrong bytes (err %v)", d.paths[f], err)
		}
		for _, k := range []opKind{opBatch, opStat} {
			op := readOp{kind: k}
			for i := range op.files {
				op.files[i] = int32((f + i) % d.files())
			}
			if !m.do(ctx, op) {
				return fmt.Errorf("op kind %d on %s failed its check", k, d.paths[f])
			}
		}
	}
	return nil
}

// written is what the concurrent writer got done in one window.
type written struct {
	files   int
	busy    time.Duration // inside Put + Flush of completed cycles
	putTime time.Duration
	flushes []float64
	failed  int
	err     error
}

// write runs ingest → read back → DeleteDataset once per writePeriod
// (back to back if a cycle overruns it) until stop is set. A cycle cut
// short by stop is cleaned up and not counted.
func (m *mixedState) write(stop *atomic.Bool) written {
	var out written
	ds := m.wds
	ctx := context.Background()
	n := m.ing.files()
	for next := time.Now(); !stop.Load(); next = next.Add(writePeriod) {
		for time.Until(next) > 0 && !stop.Load() {
			time.Sleep(min(time.Until(next), 10*time.Millisecond))
		}
		start := time.Now()
		i := 0
		for ; i < n && !stop.Load(); i++ {
			if err := ds.Put(m.ing.paths[i], m.ing.file(i)); err != nil {
				out.err = err
				return out
			}
		}
		putTime := time.Since(start)
		f0 := time.Now()
		if err := ds.Flush(); err != nil {
			out.err = err
			return out
		}
		if i == n {
			out.files += n
			out.busy += time.Since(start)
			out.putTime += putTime
			out.flushes = append(out.flushes, float64(time.Since(f0))/1e6)
			for j := 0; j < readBack; j++ {
				f := j * n / readBack
				b, err := ds.GetDirect(ctx, m.ing.paths[f])
				if err != nil || !m.ing.checkStamp(f, b) {
					out.failed++
				}
			}
		}
		if err := ds.DeleteDataset(); err != nil {
			out.err = err
			return out
		}
	}
	return out
}

// steady is the open-loop phase: one generator sends at a constant rate
// whatever the replies do; each op's latency runs from the time it was
// due, so a stall is charged to every op it delays.
func (m *mixedState) steady(seed int64, rate int, dur time.Duration, w *window) {
	n := int(dur.Seconds() * float64(rate))
	interval := time.Second / time.Duration(rate)
	lat := make([]float64, n) // ms; <0 = failed or shed
	lag := make([]float64, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	pk := m.picker(seed)
	ctx := context.Background()
	start := time.Now()
	for i := range n {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag[i] = float64(time.Since(due)) / 1e6
		op := pk.next()
		if inflight.Load() >= inflightCap {
			lat[i] = -1
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := m.do(ctx, op)
			lat[i] = float64(time.Since(due)) / 1e6
			if !ok {
				lat[i] = -1
			}
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	for _, l := range lat {
		w.attempted++
		switch {
		case l < 0:
			w.failed++
			w.overLimit++
		default:
			w.ops++
			w.waits = append(w.waits, l)
			if l > overLimitMS {
				w.overLimit++
			}
		}
	}
	w.steadyOps = n
	sort.Float64s(w.waits)
	sort.Float64s(lag)
	w.genLagMS = lag
}

// closed runs readers that each send their next op when the last
// returns, for dur, and returns how many ops completed in how long.
// Throughput is ops over the phase, not a median over slices: a phase this short has no
// slice that is typical.
func (m *mixedState) closed(seed int64, readers int, dur time.Duration, w *window) (int, time.Duration) {
	done := make([]int, readers)
	bad := make([]int, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for r := range readers {
		pk := m.picker(seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Since(start) < dur {
				if m.do(ctx, pk.next()) {
					done[r]++
				} else {
					bad[r]++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := 0
	for r := range readers {
		n += done[r]
		w.failed += bad[r]
		w.attempted += done[r] + bad[r]
	}
	w.ops += n
	w.closedOps += n
	return n, elapsed
}

// mixedWindow runs the open-loop phase with the writer beside it, then
// the two closed-loop phases.
func (e *env) mixedWindow(dur time.Duration) (window, error) {
	m := e.mixed
	var w window
	var stop atomic.Bool
	var wr written
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr = m.write(&stop)
	}()
	seed := e.p.seed
	steadyDur := time.Duration(float64(dur) * steadyShare)
	m.steady(seed, e.p.rate, steadyDur, &w)
	stop.Store(true)
	wg.Wait()
	// The writer runs beside the open-loop phase only. Throughput is what
	// nproc callers get, as on the epoch workloads. Cost per op is taken
	// where enough readers keep every processor busy and nothing but
	// reads runs, so it is the read path's: at partial load the
	// scheduler's park/unpark cost moves CPU per op by ±10% between
	// identical runs (and doubles it).
	n, took := m.closed(seed, runtime.GOMAXPROCS(0), time.Duration(float64(dur)*closedShare), &w)
	w.opsPerS = float64(n) / took.Seconds()
	u0 := readUsage()
	n, took = m.closed(seed, e.p.readers, dur-time.Duration(float64(dur)*(steadyShare+closedShare)), &w)
	w.costPerOp(u0, readUsage(), n)
	w.satOpsPerS = float64(n) / took.Seconds()
	if wr.busy > 0 {
		w.ingestFilesPerS = float64(wr.files) / wr.busy.Seconds()
		w.putUSPerFile = float64(wr.putTime) / 1e3 / float64(wr.files)
		w.written = wr.files
	}
	w.flushMS = wr.flushes
	w.failed += wr.failed
	w.attempted += wr.failed
	if wr.files == 0 && wr.err == nil {
		wr.err = errors.New("writer finished no ingest cycle in the window")
	}
	return w, wr.err
}
