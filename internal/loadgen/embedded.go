package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/client"
	"diesel/internal/core"
	"diesel/internal/dcache"
	"diesel/internal/epoch"
	"diesel/internal/objstore"
	"diesel/internal/obs"
	"diesel/internal/wire"
)

// StackConfig describes the embedded system under test: a real
// diesel-server + kvnode deployment on loopback TCP, a written dataset,
// and a fleet of clients (the simulated trainers) wired through a
// wire.FaultGate so scripted network faults reach live connections.
type StackConfig struct {
	KVNodes int // metadata nodes (default 2)
	Servers int // stateless DIESEL servers (default 2)

	Files     int // dataset size in files (default 512)
	FileSizeB int // bytes per file (default 4096)

	// DiskLatency is the modeled per-operation store latency. In the CI
	// capacity smoke it dominates service time, making the p99 gate
	// portable across machines (default 0 = no modeled latency).
	DiskLatency   time.Duration
	SSDCacheBytes int64 // optional fast tier over the throttled store

	// Clients is the number of standalone libDIESEL contexts operations
	// round-robin over (default 8).
	Clients int

	// TaskNodes/ClientsPerNode, when both positive, additionally start a
	// DLT task with the distributed cache; the "view" mix entry and
	// epoch readers run against it.
	TaskNodes      int
	ClientsPerNode int

	// Jobs, when >= 2, starts that many DLT tasks ("training jobs") over
	// the one dataset instead of a single task. Each job registers in the
	// server's job registry under its own job ID and tenant, and all of
	// them share one unbounded dcache.SharedCache, so the run measures
	// multi-job cache-hit amplification (Report.MultiJob). Requires
	// TaskNodes and ClientsPerNode.
	Jobs int

	// EpochReaders is the number of background pipelined epoch readers
	// looping over the dataset during the run (soak-style ambient load).
	EpochReaders int

	// EpochHedge, EpochReorder and EpochDeadline switch on the epoch
	// reader's tail-latency controls (epoch.WithHedge,
	// epoch.WithReorderWindow, epoch.WithGroupDeadline) for the
	// background readers, so a disk-tail fault window exercises the
	// hedged path the CI smoke gates on.
	EpochHedge    bool
	EpochReorder  int
	EpochDeadline time.Duration

	// DiagSpoolDir, when non-empty, runs the SLO engine + anomaly watchdog
	// alongside the load (CI-scale burn windows, see startWatchdog),
	// spooling diagnostic bundles here; Report.Diag then lists them.
	DiagSpoolDir string

	// stallSLO overrides stallObjective; tests shrink it so every stall
	// burns budget.
	stallSLO time.Duration
}

// The harness's fixed settings.
const (
	// chunkTarget is the writer's chunk payload target: small, so the
	// dataset has many chunks and cache/eviction behaviour is observable.
	chunkTarget = 64 << 10
	// batchSize is the number of paths per "batch" op.
	batchSize = 8
	// stallObjective is the epoch-stall latency objective the watchdog's
	// burn rates run on, and readObjective the served-read one — the
	// latter is what a disk-tail straggler window breaches even when
	// hedging keeps the stall p99 in check.
	stallObjective = 10 * time.Millisecond
	readObjective  = 20 * time.Millisecond
	// dataset names the harness's one dataset.
	dataset = "loadgen"
)

func (c *StackConfig) setDefaults() {
	if c.KVNodes <= 0 {
		c.KVNodes = 2
	}
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.Files <= 0 {
		c.Files = 512
	}
	if c.FileSizeB <= 0 {
		c.FileSizeB = 4096
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.stallSLO <= 0 {
		c.stallSLO = stallObjective
	}
}

// Stack is a running embedded system under test.
type Stack struct {
	Dep      *core.Deployment
	Throttle *objstore.Throttled
	Gate     *wire.FaultGate
	Clients  []*client.Client
	Task     *core.Task   // single-task mode; in Jobs mode, JobTasks[0]
	JobTasks []*core.Task // Jobs-mode tasks, one per training job
	Shared   *dcache.SharedCache
	Paths    []string
	ChunkIDs []string

	cfg StackConfig
}

// jobID names the i-th training job of a Jobs-mode stack.
func jobID(i int) string { return fmt.Sprintf("job-%02d", i) }

// StartStack deploys the stack and writes the dataset. The store is
// always wrapped in a Throttled (even at zero latency) so disk-slow
// fault windows work; every client dials through the stack's FaultGate.
func StartStack(cfg StackConfig) (*Stack, error) {
	cfg.setDefaults()
	st := &Stack{cfg: cfg, Gate: &wire.FaultGate{}}
	st.Throttle = &objstore.Throttled{Latency: cfg.DiskLatency}
	dep, err := core.Deploy(core.Config{
		KVNodes:       cfg.KVNodes,
		DieselServers: cfg.Servers,
		Throttle:      st.Throttle,
		SSDCacheBytes: cfg.SSDCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	st.Dep = dep
	fail := func(err error) (*Stack, error) {
		st.Close()
		return nil, err
	}

	// Write the dataset through a plain (ungated) client.
	wcl, err := client.Connect(client.Options{
		User: "core", Key: "core",
		Servers:     dep.ServerAddrs(),
		Dataset:     dataset,
		ChunkTarget: chunkTarget,
	})
	if err != nil {
		return fail(err)
	}
	wds := wcl.DefaultDataset()
	payload := make([]byte, cfg.FileSizeB)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	st.Paths = make([]string, cfg.Files)
	for i := range cfg.Files {
		st.Paths[i] = fmt.Sprintf("cls%02d/img%05d.jpg", i%16, i)
		if err := wds.Put(st.Paths[i], payload); err != nil {
			wcl.Close()
			return fail(fmt.Errorf("loadgen: put: %w", err))
		}
	}
	if err := wds.Flush(); err != nil {
		wcl.Close()
		return fail(fmt.Errorf("loadgen: flush: %w", err))
	}
	snap, err := wds.DownloadSnapshot()
	if err != nil {
		wcl.Close()
		return fail(err)
	}
	for _, c := range snap.Chunks {
		st.ChunkIDs = append(st.ChunkIDs, c.ID.String())
	}
	wcl.Close()

	// The trainer fleet: standalone contexts dialing through the gate.
	// Retries are raised above the client default: the round-robin
	// counter is shared across in-flight calls, so under concurrency a
	// retry's "next server" is effectively random, and surviving a
	// one-of-two server kill needs a few draws. A call timeout keeps
	// severed-connection windows from wedging executors.
	for i := range cfg.Clients {
		cl, err := client.Connect(client.Options{
			User: "loadgen", Key: "loadgen",
			Servers:      dep.ServerAddrs(),
			Dataset:      dataset,
			Rank:         i,
			MaxRetries:   5,
			RetryBackoff: 2 * time.Millisecond,
			CallTimeout:  2 * time.Second,
			Dialer:       st.Gate.Dialer(),
		})
		if err != nil {
			return fail(err)
		}
		if _, err := cl.DefaultDataset().DownloadSnapshot(); err != nil {
			cl.Close()
			return fail(err)
		}
		st.Clients = append(st.Clients, cl)
	}

	if cfg.TaskNodes > 0 && cfg.ClientsPerNode > 0 {
		if cfg.Jobs >= 2 {
			// Multi-job serving: every job is its own task (own barrier,
			// own master election) but they share one chunk cache, so the
			// second job's prefetch should find the first job's chunks.
			st.Shared = dcache.NewSharedCache(0, 0, nil)
			for j := range cfg.Jobs {
				task, err := dep.StartTask(core.TaskConfig{
					Dataset:        dataset,
					Nodes:          cfg.TaskNodes,
					ClientsPerNode: cfg.ClientsPerNode,
					Policy:         dcache.Oneshot,
					JobID:          jobID(j),
					Tenant:         fmt.Sprintf("tenant-%02d", j),
					Shared:         st.Shared,
					Dialer:         st.Gate.Dialer(),
				})
				if err != nil {
					return fail(err)
				}
				st.JobTasks = append(st.JobTasks, task)
			}
			st.Task = st.JobTasks[0]
		} else {
			task, err := dep.StartTask(core.TaskConfig{
				Dataset:        dataset,
				Nodes:          cfg.TaskNodes,
				ClientsPerNode: cfg.ClientsPerNode,
				Policy:         dcache.Oneshot,
				Dialer:         st.Gate.Dialer(),
			})
			if err != nil {
				return fail(err)
			}
			st.Task = task
		}
	}
	return st, nil
}

// Close tears the stack down.
func (s *Stack) Close() {
	if len(s.JobTasks) > 0 {
		for _, t := range s.JobTasks {
			t.Close()
		}
	} else if s.Task != nil {
		s.Task.Close()
	}
	for _, c := range s.Clients {
		c.Close()
	}
	if s.Shared != nil {
		s.Shared.Close()
	}
	s.Dep.Close()
}

func (s *Stack) client(rng *rand.Rand) *client.Dataset {
	return s.Clients[rng.Intn(len(s.Clients))].DefaultDataset()
}

func (s *Stack) path(rng *rand.Rand) string {
	return s.Paths[rng.Intn(len(s.Paths))]
}

// Ops builds the weighted workload mix from a spec like
// "get=6,batch=2,chunk=1,view=1". Kinds:
//
//	get    - Dataset.Get (cached snapshot metadata, chunk read)
//	direct - Dataset.GetDirect (server-side request executor)
//	batch  - Dataset.GetBatch over 8 random paths
//	chunk  - Dataset.GetChunk of one whole random chunk
//	view   - dcache.Peer.ReadFileViewContext through the task cache
//	         (falls back to get when the stack has no task)
//	stat   - Dataset.Stat
func (s *Stack) Ops(spec string) ([]WeightedOp, error) {
	if spec == "" {
		spec = "get=6,batch=2,chunk=1"
	}
	var ops []WeightedOp
	for _, part := range strings.Split(spec, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: mix entry %q: want kind=weight", part)
		}
		w, err := strconv.Atoi(wstr)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("loadgen: mix entry %q: bad weight", part)
		}
		var do OpFunc
		switch name {
		case "get":
			do = func(ctx context.Context, rng *rand.Rand) error {
				_, err := s.client(rng).Get(ctx, s.path(rng))
				return err
			}
		case "direct":
			do = func(ctx context.Context, rng *rand.Rand) error {
				_, err := s.client(rng).GetDirect(ctx, s.path(rng))
				return err
			}
		case "batch":
			do = func(ctx context.Context, rng *rand.Rand) error {
				paths := make([]string, batchSize)
				for i := range paths {
					paths[i] = s.path(rng)
				}
				_, err := s.client(rng).GetBatch(ctx, paths)
				return err
			}
		case "chunk":
			do = func(ctx context.Context, rng *rand.Rand) error {
				id := s.ChunkIDs[rng.Intn(len(s.ChunkIDs))]
				_, err := s.client(rng).GetChunk(ctx, id)
				return err
			}
		case "view":
			if s.Task == nil {
				do = func(ctx context.Context, rng *rand.Rand) error {
					_, err := s.client(rng).Get(ctx, s.path(rng))
					return err
				}
			} else {
				// In Jobs mode the view reads spread over every job's
				// peers, so all jobs exercise the shared cache.
				var peers []*dcache.Peer
				if len(s.JobTasks) > 0 {
					for _, t := range s.JobTasks {
						peers = append(peers, t.Peers...)
					}
				} else {
					peers = s.Task.Peers
				}
				do = func(ctx context.Context, rng *rand.Rand) error {
					p := peers[rng.Intn(len(peers))]
					_, err := p.ReadFileViewContext(ctx, s.path(rng))
					return err
				}
			}
		case "stat":
			do = func(ctx context.Context, rng *rand.Rand) error {
				_, err := s.client(rng).Stat(s.path(rng))
				return err
			}
		default:
			return nil, fmt.Errorf("loadgen: unknown mix kind %q", name)
		}
		ops = append(ops, WeightedOp{Name: name, Weight: w, Do: do})
	}
	return ops, nil
}

// ParseSchedule turns a fault-schedule spec into a Schedule bound to this
// stack. Spec: semicolon-separated windows "start+dur:kind[:arg]" with
// Go durations, e.g.
//
//	"5s+3s:server-kill:0; 12s+3s:disk-slow:10ms; 20s+3s:net-delay:5ms"
//
// Kinds:
//
//	kv-kill:<idx>     close metadata node idx, restart at window end
//	                  (data intact — a node outage, not a disk loss)
//	server-kill:<idx> close DIESEL server idx, restart at window end
//	                  (stateless: clients fail over, pools redial)
//	disk-slow:<dur>   add dur to every store operation
//	disk-tail:<n>x<dur> every n-th store operation takes dur extra —
//	                  stragglers rather than a uniform slowdown, the
//	                  shape hedged epoch reads exist to absorb
//	net-delay:<dur>   delay every client-connection write by dur
//	net-drop:<prob>   silently swallow writes with probability prob
//	net-sever:<prob>  kill the connection on write with probability prob
func (s *Stack) ParseSchedule(spec string) (Schedule, error) {
	var sched Schedule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := s.parseFault(part)
		if err != nil {
			return nil, err
		}
		sched = append(sched, f)
	}
	if err := sched.validate(); err != nil {
		return nil, err
	}
	return sched, nil
}

func (s *Stack) parseFault(spec string) (Fault, error) {
	bad := func(msg string) (Fault, error) {
		return Fault{}, fmt.Errorf("loadgen: fault %q: %s", spec, msg)
	}
	window, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return bad("want start+dur:kind[:arg]")
	}
	startStr, durStr, ok := strings.Cut(window, "+")
	if !ok {
		return bad("window must be start+dur")
	}
	start, err1 := time.ParseDuration(strings.TrimSpace(startStr))
	dur, err2 := time.ParseDuration(strings.TrimSpace(durStr))
	if err1 != nil || err2 != nil {
		return bad("bad window durations")
	}
	kind, arg, _ := strings.Cut(rest, ":")
	kind = strings.TrimSpace(kind)
	arg = strings.TrimSpace(arg)
	f := Fault{Name: kind, Start: start, Dur: dur}

	idxArg := func(n int) (int, error) {
		i, err := strconv.Atoi(arg)
		if err != nil || i < 0 || i >= n {
			return 0, fmt.Errorf("index %q out of range [0,%d)", arg, n)
		}
		return i, nil
	}
	switch kind {
	case "kv-kill":
		i, err := idxArg(len(s.Dep.KVServers()))
		if err != nil {
			return bad(err.Error())
		}
		node := s.Dep.KVServers()[i]
		f.Name = fmt.Sprintf("kv-kill-%d", i)
		f.Apply = func() error { return node.Close() }
		f.Revert = node.Restart
	case "server-kill":
		i, err := idxArg(len(s.Dep.Servers()))
		if err != nil {
			return bad(err.Error())
		}
		srv := s.Dep.Servers()[i]
		f.Name = fmt.Sprintf("server-kill-%d", i)
		f.Apply = func() error { return srv.Close() }
		f.Revert = srv.Restart
	case "disk-slow":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return bad("disk-slow wants a positive duration arg")
		}
		f.Apply = func() error { s.Throttle.SetExtraLatency(d); return nil }
		f.Revert = func() error { s.Throttle.SetExtraLatency(0); return nil }
	case "disk-tail":
		nStr, dStr, ok := strings.Cut(arg, "x")
		n, errN := strconv.Atoi(strings.TrimSpace(nStr))
		d, errD := time.ParseDuration(strings.TrimSpace(dStr))
		if !ok || errN != nil || n < 2 || errD != nil || d <= 0 {
			return bad("disk-tail wants <every>x<extra>, e.g. 50x18ms")
		}
		f.Apply = func() error { s.Throttle.SetSlowEvery(n, d); return nil }
		f.Revert = func() error { s.Throttle.SetSlowEvery(0, 0); return nil }
	case "net-delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return bad("net-delay wants a positive duration arg")
		}
		f.Apply = func() error { s.Gate.Set(wire.FaultPlan{Seed: 1, Delay: d}); return nil }
		f.Revert = func() error { s.Gate.Clear(); return nil }
	case "net-drop", "net-sever":
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p <= 0 || p > 1 {
			return bad(kind + " wants a probability in (0,1]")
		}
		plan := wire.FaultPlan{Seed: 1}
		if kind == "net-drop" {
			plan.DropProb = p
		} else {
			plan.SeverProb = p
		}
		f.Apply = func() error { s.Gate.Set(plan); return nil }
		f.Revert = func() error { s.Gate.Clear(); return nil }
	default:
		return bad("unknown fault kind")
	}
	return f, nil
}

// trackedCounters are the obs counter families whose deltas over the run
// land in Report.Counters — the resilience story of a faulted run.
var trackedCounters = []string{
	"diesel_client_retries_total",
	"diesel_wire_redials_total",
	"diesel_wire_call_timeouts_total",
	"diesel_dcache_master_deaths_total",
	"diesel_dcache_master_revivals_total",
	"diesel_tier_demotions_total", // the four tier families: summed over sites
	"diesel_tier_spill_hits_total",
	"diesel_tier_promotions_total",
	"diesel_tier_rewarmed_total",
	"diesel_epoch_hedges_total",
	"diesel_epoch_hedge_wins_total",
	"diesel_epoch_deadline_trips_total",
	"diesel_epoch_reorder_served_total",
}

func counterValues() map[string]float64 {
	out := make(map[string]float64, len(trackedCounters))
	want := make(map[string]bool, len(trackedCounters))
	for _, n := range trackedCounters {
		want[n] = true
	}
	for _, m := range obs.Default().Export() {
		if want[m.Name] {
			out[m.Name] += m.Value
		}
	}
	return out
}

// RunEmbedded runs the configured load against the stack: background
// epoch readers (if configured) plus the open-loop schedule, with obs
// counter deltas folded into the report.
func (s *Stack) RunEmbedded(ctx context.Context, cfg Config) (*Report, error) {
	before := counterValues()

	var watch *stackWatchdog
	if s.cfg.DiagSpoolDir != "" {
		var err error
		if watch, err = s.startWatchdog(); err != nil {
			return nil, fmt.Errorf("loadgen: start watchdog: %w", err)
		}
	}

	// Background pipelined epoch readers: ambient sequential-scan load, as
	// a training job's data loaders would apply alongside random reads.
	epochCtx, stopEpochs := context.WithCancel(ctx)
	eopts := []epoch.Option{epoch.WithWindow(2), epoch.WithContext(epochCtx)}
	if s.cfg.EpochHedge {
		eopts = append(eopts, epoch.WithHedge(nil))
	}
	if s.cfg.EpochReorder > 0 {
		eopts = append(eopts, epoch.WithReorderWindow(s.cfg.EpochReorder))
	}
	if s.cfg.EpochDeadline > 0 {
		eopts = append(eopts, epoch.WithGroupDeadline(s.cfg.EpochDeadline))
	}
	var epochWG sync.WaitGroup
	var epochs atomic.Uint64
	for i := 0; i < s.cfg.EpochReaders; i++ {
		cl := s.Clients[i%len(s.Clients)]
		epochWG.Add(1)
		go func(i int, cl *client.Client) {
			defer epochWG.Done()
			for epochCtx.Err() == nil {
				plan, err := cl.DefaultDataset().ShufflePlan(int64(i)+int64(epochs.Load()), 4)
				if err != nil {
					return
				}
				snap := cl.DefaultDataset().Snapshot()
				r := epoch.NewReader(plan, snap, epoch.NewClientSource(cl.DefaultDataset(), snap, 2), eopts...)
				for {
					if _, err := r.Next(); err != nil {
						break
					}
				}
				r.Close()
				epochs.Add(1)
			}
		}(i, cl)
	}

	rep, err := run(ctx, cfg)
	stopEpochs()
	epochWG.Wait()
	if watch != nil {
		// Stop after the epoch readers drain so a breach right at the
		// end of the run still lands a bundle, and report it even when
		// the run itself failed.
		diag := watch.finish()
		if err == nil {
			rep.Diag = diag
		}
	}
	if err != nil {
		return nil, err
	}

	rep.Counters = make(map[string]float64)
	after := counterValues()
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			rep.Counters[name] = d
		}
	}
	if s.cfg.EpochReaders > 0 {
		rep.Counters["loadgen_background_epochs"] = float64(epochs.Load())
		if ls, ok := epochStallSummary(); ok {
			rep.EpochStall = &ls
		}
	}
	if mj := s.multiJobReport(); mj != nil {
		rep.MultiJob = mj
	}
	return rep, nil
}

// multiJobReport computes the shared-cache amplification summary of a
// Jobs-mode run from the per-peer cache stats.
func (s *Stack) multiJobReport() *MultiJobReport {
	if len(s.JobTasks) < 2 {
		return nil
	}
	mj := &MultiJobReport{
		Jobs:         len(s.JobTasks),
		UniqueChunks: len(s.ChunkIDs),
		PerJobReads:  make(map[string]uint64, len(s.JobTasks)),
	}
	for j, t := range s.JobTasks {
		var reads uint64
		for _, p := range t.Peers {
			mj.ChunkLoads += p.Stats.ChunkLoads.Load()
			reads += p.Stats.LocalHits.Load() + p.Stats.PeerReads.Load()
		}
		mj.PerJobReads[jobID(j)] = reads
		mj.CacheReads += reads
	}
	// Expected server demand without sharing: every job loads every chunk
	// (the Oneshot policy's prefetch alone guarantees that).
	expected := float64(mj.Jobs) * float64(mj.UniqueChunks)
	if mj.ChunkLoads > 0 && expected > 0 {
		mj.Amplification = expected / float64(mj.ChunkLoads)
		mj.SharedHitRate = 1 - float64(mj.ChunkLoads)/expected
	}
	minR, maxR := uint64(1<<62), uint64(0)
	for _, r := range mj.PerJobReads {
		minR, maxR = min(minR, r), max(maxR, r)
	}
	if maxR > 0 {
		mj.FairnessRatio = float64(minR) / float64(maxR)
	}
	return mj
}

// epochStallSummary reads the diesel_epoch_stall_seconds histogram: how
// long background epoch readers' Next calls blocked on the pipeline,
// the figure the tail-latency controls exist to cap. The registry
// histogram is process-cumulative, not a per-run delta — exact for the
// one-shot cmd/diesel-load process the report contract serves. MaxS is
// 0: the registry tracks quantiles, not a max.
func epochStallSummary() (LatencySummary, bool) {
	for _, m := range obs.Default().Export() {
		if m.Name == "diesel_epoch_stall_seconds" && m.Count > 0 {
			return LatencySummary{
				Count: m.Count,
				MeanS: m.Mean,
				P50S:  m.P50,
				P90S:  m.P90,
				P99S:  m.P99,
				P999S: m.P999,
			}, true
		}
	}
	return LatencySummary{}, false
}
