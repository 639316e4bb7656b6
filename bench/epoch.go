package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"diesel/internal/client"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/etcd"
	"diesel/internal/meta"
)

// consumer is one trainer rank: it streams whole shuffled epochs through
// an epoch.Reader, a new plan seed per epoch.
type consumer struct {
	id   int
	ds   *client.Dataset
	snap *meta.Snapshot
	src  epoch.Source // the workload's source behind a sourceSeam
	next int64        // epochs started, so no plan seed repeats
}

// consumed is what one consumer saw in one window.
type consumed struct {
	samples int       // delivered
	bad     int       // delivered with wrong bytes or out of order
	missing int       // not delivered
	rates   []float64 // samples/s of each epoch
	stalls  []float64 // ms, each Next() that crossed into a new group
	wall    time.Duration
	// Traced windows also time a sample of the Next calls that cross no
	// group: the reader's own per-sample work.
	nextSelfNS, nextSelfN int64
	err                   error
}

// run streams epochs until the deadline passes (the running epoch is
// finished, so every epoch counted is a whole one). With full set it
// reads exactly one epoch and hashes every byte.
func (c *consumer) run(e *env, until time.Time, full bool) consumed {
	var out consumed
	start := time.Now()
	for full || time.Now().Before(until) {
		if err := c.epoch(e, full, &out); err != nil {
			out.err = err
			break
		}
		if full {
			break
		}
	}
	out.wall = time.Since(start)
	return out
}

func (c *consumer) epoch(e *env, full bool, out *consumed) error {
	c.next++
	seed := e.p.seed<<20 ^ int64(c.id)<<16 ^ c.next
	plan, err := c.ds.ShufflePlan(seed, groupSize)
	if err != nil {
		return err
	}
	rec, d := e.rec, e.d
	epochRef := spanRef{req: uint64(c.id+1)<<48 | uint64(c.next&0xFFFFFF)<<24}
	r := epoch.NewReader(plan, c.snap, c.src,
		epoch.WithWindow(epochWindow), epoch.WithContext(withRef(context.Background(), epochRef)))
	defer r.Close()

	n := plan.NumFiles()
	g := 0 // group the next crossing enters
	t0 := time.Now()
	for pos := 0; ; pos++ {
		crossing := g < len(plan.Groups) && pos == plan.Groups[g].Start
		// A traced window also times one in sixteen of the other calls.
		sampled := pos&15 == 0 && rec.on.Load()
		var start int64
		if crossing || sampled {
			start = rec.now()
		}
		s, err := r.Next()
		if crossing || sampled {
			dt := rec.now() - start
			switch {
			case crossing:
				out.stalls = append(out.stalls, float64(dt)/1e6)
				if rec.on.Load() {
					rec.add(kNextStall, rec.nextID.Add(1), 0, epochRef.req|uint64(g+1), start)
				}
				g++
			case err == nil:
				out.nextSelfNS += dt
				out.nextSelfN++
			}
		}
		if errors.Is(err, io.EOF) {
			out.missing += n - pos
			break
		}
		if err != nil {
			out.missing += n - pos
			return fmt.Errorf("consumer %d epoch %d pos %d: %w", c.id, c.next, pos, err)
		}
		idx := d.indexOf(s.Path)
		ok := s.Pos == pos && (full && d.checkFull(idx, s.Data) || !full && d.checkStamp(idx, s.Data))
		if !ok {
			out.bad++
		}
		out.samples++
	}
	out.rates = append(out.rates, float64(n)/time.Since(t0).Seconds())
	return r.Err()
}

// env is one set-up workload: the stack plus whatever drives it.
type env struct {
	p    *params
	d    *dataset
	rec  *recorder
	st   *stack
	snap *meta.Snapshot // the dataset's snapshot, as the readers downloaded it
	set  setupInfo

	consumers []*consumer
	clients   []*client.Client
	peers     []*dcache.Peer
	shared    *dcache.SharedCache
	mixed     *mixedState
}

// setupInfo is what set-up measured; setup_s is total.
type setupInfo struct {
	total      time.Duration
	ingest     ingestResult
	snapshotMS float64
	snapBytes  int
	warmBytes  uint64
	warm       time.Duration
	objBytes   int64
	kvBytes    int64
	spillBytes int64
}

func (e *env) close() {
	for _, p := range e.peers {
		p.Close()
	}
	for _, c := range e.clients {
		c.Close()
	}
	if e.shared != nil {
		e.shared.Close()
	}
	if e.st != nil {
		e.st.close()
	}
}

// setup builds the workload p names on a fresh stack and times it.
func setup(p *params, d *dataset, rec *recorder, spillDir string) (*env, error) {
	e := &env{p: p, d: d, rec: rec}
	start := time.Now()
	var fastBytes int64
	if p.workload == "mixed_rw" {
		fastBytes = d.bytes() / fastTierFrac
	}
	st, err := deploy(rec, fastBytes)
	if err != nil {
		return nil, err
	}
	e.st = st
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	if e.set.ingest, err = st.load(d); err != nil {
		return fail(err)
	}
	switch p.workload {
	case "epoch_server":
		err = e.joinServer()
	case "epoch_dcache":
		err = e.joinDcache()
	case "epoch_shared_spill":
		err = e.joinSharedSpill(spillDir)
	case "mixed_rw":
		err = e.joinMixed()
	}
	if err != nil {
		return fail(err)
	}
	e.set.total = time.Since(start)
	if e.mixed != nil {
		// The benchmark's own tables (popularity order, the writer's
		// files) are not part of the system's set-up time.
		if err := e.mixed.prepare(p.seed); err != nil {
			return fail(err)
		}
	}
	if e.set.objBytes, e.set.kvBytes, err = st.storedBytes(); err != nil {
		return fail(err)
	}
	if e.shared != nil {
		e.set.spillBytes = e.shared.SpillStats().DiskBytes
	}
	return e, nil
}

// reader connects one rank and downloads the snapshot on its handle.
func (e *env) reader(rank int, job, tenant string) (*client.Dataset, *meta.Snapshot, error) {
	cl, err := e.st.connect(e.d.name, rank, job, tenant)
	if err != nil {
		return nil, nil, err
	}
	e.clients = append(e.clients, cl)
	start := time.Now()
	snap, err := cl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		return nil, nil, err
	}
	e.set.snapshotMS = float64(time.Since(start)) / 1e6
	e.set.snapBytes = len(snap.Encode())
	e.snap = snap
	return cl.DefaultDataset(), snap, nil
}

func (e *env) addConsumer(ds *client.Dataset, snap *meta.Snapshot, src epoch.Source) {
	e.consumers = append(e.consumers, &consumer{
		id: len(e.consumers), ds: ds, snap: snap,
		src: &sourceSeam{inner: src, rec: e.rec},
	})
}

// epoch_server: one trainer, whole chunks straight from the servers.
func (e *env) joinServer() error {
	ds, snap, err := e.reader(0, "", "")
	if err != nil {
		return err
	}
	e.addConsumer(ds, snap, epoch.NewClientSource(&clientSeam{ds: ds, rec: e.rec}, snap, srcParallel))
	return nil
}

// join enters one rank into a task's cache (Oneshot: its master starts
// loading its partition at once).
func (e *env) join(ds *client.Dataset, cfg dcache.Config) (*dcache.Peer, error) {
	cfg.Policy = dcache.Oneshot
	return dcache.Join(ds, etcd.InProcess{R: e.st.registry.Registry()}, cfg)
}

// warm waits for every listed master's partition and times the load.
func (e *env) warm(peers []*dcache.Peer) error {
	start := time.Now()
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.LoadOwned()
		}()
	}
	wg.Wait()
	e.set.warm += time.Since(start)
	for _, p := range peers {
		e.set.warmBytes += p.Stats.BytesLoaded.Load()
	}
	return errors.Join(errs...)
}

// epoch_dcache: a 2-node × 1-client task, cache unlimited and warm.
func (e *env) joinDcache() error {
	const nodes = 2
	dss := make([]*client.Dataset, nodes)
	snaps := make([]*meta.Snapshot, nodes)
	for rank := range nodes {
		var err error
		if dss[rank], snaps[rank], err = e.reader(rank, "", ""); err != nil {
			return err
		}
	}
	// Join is a barrier over all ranks, so the ranks join concurrently.
	peers := make([]*dcache.Peer, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for rank := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peers[rank], errs[rank] = e.join(dss[rank], dcache.Config{
				TaskID: "task-" + e.d.name, NodeID: fmt.Sprintf("node%03d", rank),
				Rank: rank, TotalClients: nodes,
			})
		}()
	}
	wg.Wait()
	for _, p := range peers {
		if p != nil {
			e.peers = append(e.peers, p)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if err := e.warm(peers); err != nil {
		return err
	}
	for rank, p := range peers {
		e.addConsumer(dss[rank], snaps[rank],
			epoch.NewCacheSource(&readerSeam{peer: p, rec: e.rec}, snaps[rank], srcParallel))
	}
	return nil
}

// epoch_shared_spill: two jobs on one SharedCache whose RAM holds a
// quarter of the dataset, the rest demoted to a spill log.
func (e *env) joinSharedSpill(dir string) error {
	e.shared = dcache.NewSharedCache(e.d.bytes()/fastTierFrac, 0, nil)
	if _, err := e.shared.EnableSpill(filepath.Join(dir, "spill"), 0); err != nil {
		return err
	}
	e.shared.SetRefSource(e.st.jobs)
	for i, job := range []string{"jobA", "jobB"} {
		ds, snap, err := e.reader(0, job, "tenant"+job[3:])
		if err != nil {
			return err
		}
		p, err := e.join(ds, dcache.Config{
			TaskID: "task-" + job, NodeID: "node000", Rank: 0, TotalClients: 1,
			Shared: e.shared,
		})
		if err != nil {
			return fmt.Errorf("join %s: %w", job, err)
		}
		e.peers = append(e.peers, p)
		// The second job's partition is already in the shared cache or
		// its spill log: its warm must fetch nothing from the servers.
		if err := e.warm([]*dcache.Peer{p}); err != nil {
			return err
		}
		if i == 1 && p.Stats.ChunkLoads.Load() != 0 {
			return fmt.Errorf("second job fetched %d chunks the first had loaded", p.Stats.ChunkLoads.Load())
		}
		e.addConsumer(ds, snap,
			epoch.NewCacheSource(&readerSeam{peer: p, rec: e.rec}, snap, srcParallel))
	}
	return nil
}

// epochWindow runs every consumer for dur and merges what they saw.
func (e *env) epochWindow(dur time.Duration, full bool) (window, error) {
	u0 := readUsage()
	until := time.Now().Add(dur)
	res := make([]consumed, len(e.consumers))
	var wg sync.WaitGroup
	for i, c := range e.consumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = c.run(e, until, full)
		}()
	}
	wg.Wait()
	var w window
	var errs []error
	for _, r := range res {
		w.ops += r.samples
		w.attempted += r.samples + r.missing
		w.failed += r.bad + r.missing
		w.opsPerS += median(r.rates) // per-consumer median epoch rate, summed
		w.waits = append(w.waits, r.stalls...)
		w.nextSelfNS += r.nextSelfNS
		w.nextSelfN += r.nextSelfN
		w.consumerWall += r.wall
		errs = append(errs, r.err)
	}
	w.costPerOp(u0, readUsage(), w.ops)
	sort.Float64s(w.waits)
	return w, errors.Join(errs...)
}
