package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"diesel/internal/dcache"
	"diesel/internal/obs"
)

// metricDef declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which it may worsen (end-to-end only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEndDefs are what a trainer (or, on mixed_rw, a reader and a
// writer) sees. "op" is a sample on epoch_* and a read op on mixed_rw.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"wait_p50_ms", "ms", "lower", 0.20},
	{"wait_p90_ms", "ms", "lower", 0.25},
	{"ingest_files_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.08},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_peak_mb", "MiB", "lower", 0.10},
	{"space_amp", "ratio", "lower", 0.01},
}

// runSeconds is how long one driver run measures.
const runSeconds = 20

// manifest renders BENCHMARK.json from the tables above, so the file at
// the root of the repository cannot drift from what the program emits
// (bench_test.go compares the two).
func manifest() []byte {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayerDefs))
	for i, d := range perLayerDefs {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	b, err := json.MarshalIndent(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  any         `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEndDefs, layers}, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers always marshal
	}
	return append(b, '\n')
}

func endToEnd(e *env, w window, setupS, setupIngest float64) map[string]metric {
	ingest := w.ingestFilesPerS // mixed_rw: the writer beside the reads
	if e.mixed == nil {
		ingest = setupIngest // epoch_*: the set-up load, nothing beside it
	}
	vals := map[string]float64{
		"setup_s":            setupS,
		"ops_per_s":          w.opsPerS,
		"wait_p50_ms":        percentile(w.waits, 0.50),
		"wait_p90_ms":        percentile(w.waits, 0.90),
		"ingest_files_per_s": ingest,
		"allocs_per_op":      w.allocsPerOp,
		"cpu_us_per_op":      w.cpuUSPerOp,
		"heap_peak_mb":       w.heapPeakMB,
		"space_amp":          ratio(float64(e.set.objBytes+e.set.kvBytes+e.set.spillBytes), float64(e.d.bytes())),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.Name] = metric{Value: finite(vals[d.Name]), Unit: d.Unit}
	}
	return out
}

// perLayerDefs name every per-layer metric, with its unit and direction.
// Which end-to-end metric each should move, and on which workload, is in
// README.md.
var perLayerDefs = []metricDef{
	{Name: "epoch.self_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "epoch.source_self_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "epoch.wait_share", Unit: "share", Better: "lower"},
	{Name: "epoch.readgroup_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "epoch.readgroup_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "epoch.probe_allocs_per_sample", Unit: "count", Better: "lower"},
	{Name: "epoch.groups", Unit: "count", Better: "higher"},
	{Name: "epoch.fallbacks", Unit: "count", Better: "lower"},
	{Name: "epoch.cpu_share", Unit: "share", Better: "lower"},

	{Name: "shuffle.plan_us_per_kfile", Unit: "us", Better: "lower"},
	{Name: "shuffle.plan_allocs_per_kfile", Unit: "count", Better: "lower"},
	{Name: "shuffle.cpu_share", Unit: "share", Better: "lower"},

	{Name: "chunk.parse_us_per_mb", Unit: "us", Better: "lower"},
	{Name: "chunk.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "chunk.seal_us_per_mb", Unit: "us", Better: "lower"},
	{Name: "chunk.cpu_share", Unit: "share", Better: "lower"},

	{Name: "client.getchunk_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.getdirect_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.getbatch_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "client.put_us_per_file", Unit: "us", Better: "lower"},
	{Name: "client.flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.cpu_share", Unit: "share", Better: "lower"},

	{Name: "wire.rtt_us_1k", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_us_256k", Unit: "us", Better: "lower"},
	{Name: "wire.allocs_1k", Unit: "count", Better: "lower"},
	{Name: "wire.allocs_256k", Unit: "count", Better: "lower"},
	{Name: "wire.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.redials", Unit: "count", Better: "lower"},
	{Name: "wire.cpu_share", Unit: "share", Better: "lower"},

	{Name: "server.getchunk_self_us", Unit: "us", Better: "lower"},
	{Name: "server.getfile_self_us", Unit: "us", Better: "lower"},
	{Name: "server.getfiles8_self_us", Unit: "us", Better: "lower"},
	{Name: "server.stat_self_us", Unit: "us", Better: "lower"},
	{Name: "server.ingest_self_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "server.merge_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.rpc_errors", Unit: "count", Better: "lower"},
	{Name: "server.cpu_share", Unit: "share", Better: "lower"},

	{Name: "kvstore.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "kvstore.mget_us_p50", Unit: "us", Better: "lower"},
	{Name: "kvstore.mset_us_p50", Unit: "us", Better: "lower"},
	{Name: "kvstore.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.keys_per_mget", Unit: "count", Better: "higher"},
	{Name: "kvstore.retries", Unit: "count", Better: "lower"},
	{Name: "kvstore.cpu_share", Unit: "share", Better: "lower"},

	{Name: "objstore.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "objstore.getrange_us_p50", Unit: "us", Better: "lower"},
	{Name: "objstore.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "objstore.tiered_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "objstore.fast_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "objstore.slow_ops_per_op", Unit: "count", Better: "lower"},
	{Name: "objstore.read_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "objstore.stored_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "objstore.cpu_share", Unit: "share", Better: "lower"},

	{Name: "dcache.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "dcache.read_us_p99", Unit: "us", Better: "lower"},
	{Name: "dcache.local_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dcache.peer_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dcache.server_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dcache.local_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "dcache.local_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "dcache.peer_read_us", Unit: "us", Better: "lower"},
	{Name: "dcache.warm_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "dcache.chunk_loads", Unit: "count", Better: "lower"},
	{Name: "dcache.evictions", Unit: "count", Better: "lower"},
	{Name: "dcache.ram_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dcache.spill_hit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dcache.promotions", Unit: "count", Better: "lower"},
	{Name: "dcache.demoted_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "dcache.cpu_share", Unit: "share", Better: "lower"},

	{Name: "spill.add_us_per_mb", Unit: "us", Better: "lower"},
	{Name: "spill.readat_us", Unit: "us", Better: "lower"},
	{Name: "spill.readat_allocs", Unit: "count", Better: "lower"},
	{Name: "spill.get_us_per_mb", Unit: "us", Better: "lower"},
	{Name: "spill.replay_ms_per_kentry", Unit: "ms", Better: "lower"},
	{Name: "spill.disk_bytes_per_live_byte", Unit: "ratio", Better: "lower"},
	{Name: "spill.cpu_share", Unit: "share", Better: "lower"},

	{Name: "meta.snapshot_download_ms", Unit: "ms", Better: "lower"},
	{Name: "meta.snapshot_bytes_per_file", Unit: "B", Better: "lower"},

	{Name: "bench.wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.sat_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.gen_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bench.over_limit_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.residual_share", Unit: "share", Better: "lower"},
}

// counters is a reading of the counts the layers keep themselves; the
// per-layer ratios are deltas over the traced window.
type counters struct {
	poolCalls, bytesOut, redials float64 // wire
	clientRetries, kvRetries     float64
	epochGroups, epochFallbacks  float64
	rpcErrors                    float64

	local, peer, fallback, chunkLoads, evictions uint64 // dcache, all peers
	spill                                        dcache.SpillStats
	tierHits, tierMisses                         uint64
	execFiles, execReads                         uint64
	mgetKeys, readBytes                          uint64 // counted at the bench's seams
}

func (e *env) counters() counters {
	var c counters
	for _, m := range obs.Default().Export() {
		switch m.Name {
		case "diesel_wire_pool_calls_total":
			c.poolCalls += m.Value
		case "diesel_wire_bytes_total":
			if m.Labels["dir"] == "out" {
				c.bytesOut += m.Value
			}
		case "diesel_wire_redials_total":
			c.redials += m.Value
		case "diesel_client_retries_total":
			c.clientRetries += m.Value
		case "diesel_kv_retries_total":
			c.kvRetries += m.Value
		case "diesel_epoch_groups_total":
			c.epochGroups += m.Value
		case "diesel_epoch_chunk_fallbacks_total":
			c.epochFallbacks += m.Value
		case "diesel_wire_errors_total":
			if strings.HasPrefix(m.Labels["method"], "dsl.") {
				c.rpcErrors += m.Value
			}
		}
	}
	for _, p := range e.peers {
		c.local += p.Stats.LocalHits.Load()
		c.peer += p.Stats.PeerReads.Load()
		c.fallback += p.Stats.ServerFallback.Load()
		c.chunkLoads += p.Stats.ChunkLoads.Load()
		c.evictions += p.Stats.Evictions.Load()
	}
	if e.shared != nil {
		c.spill = e.shared.SpillStats()
	}
	if t := e.st.tiered; t != nil {
		c.tierHits, c.tierMisses = t.HitCount(), t.MissCount()
	}
	x := &e.st.core.Exec.Stats
	c.execFiles = x.FilesServed.Load()
	c.execReads = x.ChunkReads.Load() + x.RangeReads.Load()
	c.mgetKeys, c.readBytes = e.rec.mgetKeys.Load(), e.rec.readBytes.Load()
	return c
}

// budgetLine is one layer's modeled CPU per op.
type budgetLine struct {
	layer string
	cpuUS float64
}

func perLayer(e *env, w0, w1 window, spans []span, c0, c1 counters, ps *probes,
	log func(string, ...any)) map[string]metric {
	agg := aggregate(spans)
	ops := float64(w1.ops)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	userBytes := float64(e.d.bytes())
	pr := ps.m
	v := make(map[string]float64, len(perLayerDefs))

	// epoch
	samples := 0.0
	if e.mixed == nil {
		samples = ops
	}
	v["epoch.self_us_per_sample"] = ratio(float64(w1.nextSelfNS)/1e3, float64(w1.nextSelfN))
	v["epoch.source_self_us_per_sample"] = ratio(selfUS(spans, kReadGroup), samples)
	v["epoch.wait_share"] = ratio(agg[kNextStall].sumUS, float64(w1.consumerWall)/1e3)
	v["epoch.readgroup_ms_p50"] = agg[kReadGroup].p(0.5) / 1e3
	v["epoch.readgroup_ms_p99"] = agg[kReadGroup].p(0.99) / 1e3
	files := float64(e.d.files())
	v["epoch.probe_allocs_per_sample"] = pr["epoch.stub"].allocs / files
	v["epoch.groups"] = c1.epochGroups - c0.epochGroups
	v["epoch.fallbacks"] = c1.epochFallbacks - c0.epochFallbacks

	// shuffle, chunk
	v["shuffle.plan_us_per_kfile"] = pr["shuffle.plan"].us / files * 1000
	v["shuffle.plan_allocs_per_kfile"] = pr["shuffle.plan"].allocs / files * 1000
	v["chunk.parse_us_per_mb"] = ratio(pr["chunk.parse"].us, ps.chunkMB)
	v["chunk.parse_allocs"] = pr["chunk.parse"].allocs
	v["chunk.seal_us_per_mb"] = ratio(pr["chunk.seal"].us, ps.chunkMB)

	// client
	v["client.getchunk_us_p50"] = agg[kGetChunk].p(0.5)
	v["client.getdirect_us_p50"] = agg[kGetDirect].p(0.5)
	v["client.getbatch_us_p50"] = agg[kGetBatch].p(0.5)
	v["client.self_us_per_call"] = max(0, pr["client.getchunk"].us-pr["wire.256k"].us-pr["server.getchunk"].us)
	if e.mixed != nil {
		v["client.put_us_per_file"] = w1.putUSPerFile
		v["client.flush_ms_p50"] = median(w1.flushMS)
	} else {
		in := e.set.ingest
		v["client.put_us_per_file"] = ratio(float64(in.putTime)/1e3, float64(in.files))
		v["client.flush_ms_p50"] = median(in.flushes)
	}
	v["client.retries"] = c1.clientRetries - c0.clientRetries

	// wire
	calls := c1.poolCalls - c0.poolCalls
	v["wire.rtt_us_1k"] = pr["wire.1k"].us
	v["wire.rtt_us_256k"] = pr["wire.256k"].us
	v["wire.allocs_1k"] = pr["wire.1k"].allocs
	v["wire.allocs_256k"] = pr["wire.256k"].allocs
	v["wire.calls_per_op"] = perOp(calls)
	v["wire.bytes_per_op"] = perOp(c1.bytesOut - c0.bytesOut)
	v["wire.redials"] = c1.redials - c0.redials

	// server: a direct call's wall time minus what it spent below, in the
	// kvstore and objstore seams.
	for _, k := range []string{"getchunk", "getfile", "getfiles8", "stat"} {
		p := pr["server."+k]
		v["server."+k+"_self_us"] = max(0, p.us-p.seamUS)
	}
	v["server.ingest_self_us_per_chunk"] = max(0, pr["server.ingest"].us-pr["server.ingest"].seamUS)
	v["server.merge_ratio"] = ratio(float64(c1.execFiles-c0.execFiles), float64(c1.execReads-c0.execReads))
	v["server.rpc_errors"] = c1.rpcErrors - c0.rpcErrors

	// kvstore
	kvCalls := float64(agg[kKVGet].n + agg[kKVMGet].n + agg[kKVMSet].n + agg[kKVOther].n)
	v["kvstore.get_us_p50"] = agg[kKVGet].p(0.5)
	v["kvstore.mget_us_p50"] = agg[kKVMGet].p(0.5)
	v["kvstore.mset_us_p50"] = agg[kKVMSet].p(0.5)
	v["kvstore.calls_per_op"] = perOp(kvCalls)
	v["kvstore.keys_per_mget"] = ratio(float64(c1.mgetKeys-c0.mgetKeys), float64(agg[kKVMGet].n))
	v["kvstore.retries"] = c1.kvRetries - c0.kvRetries

	// objstore
	objOps := float64(agg[kObjGet].n + agg[kObjGetRange].n + agg[kObjPut].n + agg[kObjOther].n)
	slowOps := float64(agg[kSlowGet].n + agg[kSlowGetRange].n + agg[kSlowPut].n + agg[kSlowOther].n)
	objUS := agg[kObjGet].sumUS + agg[kObjGetRange].sumUS + agg[kObjPut].sumUS + agg[kObjOther].sumUS
	slowUS := agg[kSlowGet].sumUS + agg[kSlowGetRange].sumUS + agg[kSlowPut].sumUS + agg[kSlowOther].sumUS
	v["objstore.get_us_p50"] = agg[kObjGet].p(0.5)
	v["objstore.getrange_us_p50"] = agg[kObjGetRange].p(0.5)
	v["objstore.put_us_p50"] = agg[kObjPut].p(0.5)
	if e.st.tiered != nil {
		v["objstore.tiered_self_us_per_op"] = ratio(objUS-slowUS, objOps)
		v["objstore.slow_ops_per_op"] = perOp(slowOps)
	} else {
		v["objstore.slow_ops_per_op"] = perOp(objOps) // no fast tier: every store op is the final one
	}
	v["objstore.fast_hit_ratio"] = ratio(float64(c1.tierHits-c0.tierHits),
		float64(c1.tierHits-c0.tierHits+c1.tierMisses-c0.tierMisses))
	delivered := userBytes / files * ops // mean file size × ops
	v["objstore.read_bytes_per_user_byte"] = ratio(float64(c1.readBytes-c0.readBytes), delivered)
	v["objstore.stored_bytes_per_user_byte"] = ratio(float64(e.set.objBytes), userBytes)

	// dcache
	dLocal, dPeer, dFall := float64(c1.local-c0.local), float64(c1.peer-c0.peer), float64(c1.fallback-c0.fallback)
	reads := dLocal + dPeer + dFall
	spillHits := float64(c1.spill.Hits - c0.spill.Hits)
	spillMiss := float64(c1.spill.Misses - c0.spill.Misses)
	promotions := float64(c1.spill.Promotions - c0.spill.Promotions)
	demoted := float64(c1.spill.DemotedBytes - c0.spill.DemotedBytes)
	v["dcache.read_us_p50"] = agg[kDcacheRead].p(0.5)
	v["dcache.read_us_p99"] = agg[kDcacheRead].p(0.99)
	v["dcache.local_ratio"] = ratio(dLocal, reads)
	v["dcache.peer_ratio"] = ratio(dPeer, reads)
	v["dcache.server_ratio"] = ratio(dFall, reads)
	v["dcache.local_hit_ns"] = pr["dcache.local"].us * 1e3
	v["dcache.local_hit_allocs"] = pr["dcache.local"].allocs
	v["dcache.peer_read_us"] = pr["dcache.peer"].us
	v["dcache.warm_mb_per_s"] = ratio(float64(e.set.warmBytes)/(1<<20), e.set.warm.Seconds())
	v["dcache.chunk_loads"] = float64(c1.chunkLoads) // since set-up: the whole dataset once, whoever asks
	v["dcache.evictions"] = float64(c1.evictions - c0.evictions)
	if reads > 0 && e.shared != nil {
		v["dcache.spill_hit_ratio"] = ratio(spillHits, reads)
		v["dcache.ram_hit_ratio"] = max(0, 1-ratio(spillHits+spillMiss, reads))
	} else if reads > 0 {
		v["dcache.ram_hit_ratio"] = ratio(dLocal+dPeer, reads)
	}
	v["dcache.promotions"] = promotions
	v["dcache.demoted_bytes_per_user_byte"] = ratio(demoted, delivered)

	// spill, meta
	v["spill.add_us_per_mb"] = ratio(pr["spill.add"].us, ps.chunkMB)
	v["spill.readat_us"] = pr["spill.readat"].us
	v["spill.readat_allocs"] = pr["spill.readat"].allocs
	v["spill.get_us_per_mb"] = ratio(pr["spill.get"].us, ps.chunkMB)
	v["spill.replay_ms_per_kentry"] = ps.replayMSPerK
	v["spill.disk_bytes_per_live_byte"] = ps.spillDiskPer
	v["meta.snapshot_download_ms"] = e.set.snapshotMS
	v["meta.snapshot_bytes_per_file"] = float64(e.set.snapBytes) / files

	// run level
	v["bench.wait_p99_ms"] = percentile(w0.waits, 0.99) // untraced half; too unsteady on mixed_rw to bound
	v["bench.sat_ops_per_s"] = w0.satOpsPerS
	v["bench.gen_lag_ms_p99"] = percentile(w1.genLagMS, 0.99)
	v["bench.over_limit_share"] = ratio(float64(w1.overLimit), float64(w1.steadyOps))
	v["trace.overhead_share"] = 1 - ratio(w1.opsPerS, w0.opsPerS)

	// The layer budget: modeled CPU per op of each layer, as a share of
	// the CPU per op the untraced window measured.
	lines := e.budget(w1, agg, c0, c1, ps)
	explained := 0.0
	log("layer budget (modeled CPU per op; measured %.3f us/op untraced):\n", w0.cpuUSPerOp)
	for _, l := range lines {
		explained += l.cpuUS
		v[l.layer+".cpu_share"] = ratio(l.cpuUS, w0.cpuUSPerOp)
		log("  %-9s %9.3f us/op  %5.1f%%\n", l.layer, l.cpuUS, 100*ratio(l.cpuUS, w0.cpuUSPerOp))
	}
	v["trace.residual_share"] = 1 - ratio(explained, w0.cpuUSPerOp)
	log("  %-9s %9.3f us/op  %5.1f%%\n", "residual", w0.cpuUSPerOp-explained, 100*v["trace.residual_share"])

	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		out[d.Name] = metric{Value: finite(v[d.Name]), Unit: d.Unit}
	}
	return out
}

// budget models each layer's own CPU per op as (calls per op seen in the
// traced window) × (the probe's CPU per call, minus the probes of what
// the call runs below it). Everything is in one process, so the parts
// add up to the process CPU the end-to-end metric reports; what they do
// not reach — GC, scheduling, goroutine hand-offs, the benchmark's own
// checks — is the residual.
func (e *env) budget(w window, agg [numKinds]kindStats, c0, c1 counters, ps *probes) []budgetLine {
	pr := ps.m
	ops := float64(w.ops)
	if ops == 0 {
		return nil
	}
	cpu := func(name string) float64 { return pr[name].cpuUS }
	n := func(k spanKind) float64 { return float64(agg[k].n) / ops }
	files := float64(e.d.files())
	fic := float64(max(ps.filesInChunk, 1))
	chunkBytes := ps.chunkMB * (1 << 20)
	fileBytes := chunkBytes / fic
	// wire CPU of one call moving b payload bytes each way, between the
	// two probed frame sizes.
	wireCPU := func(b float64) float64 {
		lo, hi := cpu("wire.1k"), cpu("wire.256k")
		return max(0, lo+(hi-lo)*(b-1024)/(255<<10))
	}
	own := func(total float64, below ...float64) float64 {
		for _, b := range below {
			total -= b
		}
		return max(0, total)
	}

	samples := 0.0
	if e.mixed == nil {
		samples = 1
	}
	ingestFiles := float64(w.written) / ops
	ingestChunks := ingestFiles / fic
	parses := float64(c1.chunkLoads-c0.chunkLoads) / ops
	if e.p.workload == "epoch_server" {
		parses += n(kGetChunk)
	}
	dLocal, dPeer := float64(c1.local-c0.local)/ops, float64(c1.peer-c0.peer)/ops
	spillHits := float64(c1.spill.Hits-c0.spill.Hits) / ops
	promotions := float64(c1.spill.Promotions-c0.spill.Promotions) / ops
	demotedChunks := float64(c1.spill.DemotedBytes-c0.spill.DemotedBytes) / chunkBytes / ops
	calls := (c1.poolCalls - c0.poolCalls) / ops
	bytesPerCall := ratio(c1.bytesOut-c0.bytesOut, c1.poolCalls-c0.poolCalls) / 2

	clientOwn := n(kGetChunk)*own(cpu("client.getchunk"), wireCPU(chunkBytes), cpu("server.getchunk")) +
		n(kGetDirect)*own(cpu("client.getdirect"), wireCPU(fileBytes), cpu("server.getfile")) +
		n(kGetBatch)*own(cpu("client.getbatch"), wireCPU(batchFiles*fileBytes), cpu("server.getfiles8")) +
		n(kStat)*own(cpu("client.stat"), wireCPU(128), cpu("server.stat")) +
		ingestChunks*own(cpu("client.ingest"), wireCPU(chunkBytes), cpu("server.ingest"), cpu("chunk.seal"))
	// A server call's own CPU is the direct call minus the store calls it
	// makes: one Get per chunk; stat + range read per file; one MGet and
	// the executor's reads per batch; collision check, Put and MSet per
	// ingested chunk.
	serverOwn := n(kGetChunk)*own(cpu("server.getchunk"), cpu("objstore.get")) +
		n(kGetDirect)*own(cpu("server.getfile"), cpu("kvstore.get"), cpu("objstore.getrange")) +
		n(kGetBatch)*own(cpu("server.getfiles8"), cpu("kvstore.mget"), batchFiles*cpu("objstore.getrange")) +
		n(kStat)*own(cpu("server.stat"), cpu("kvstore.get")) +
		ingestChunks*own(cpu("server.ingest"), cpu("kvstore.mset"), 2*cpu("kvstore.get"), cpu("objstore.get"))
	kvOwn := n(kKVGet)*own(cpu("kvstore.get"), wireCPU(128)) +
		n(kKVMGet)*own(cpu("kvstore.mget"), kvNodes*wireCPU(512)) +
		n(kKVMSet)*own(cpu("kvstore.mset"), kvNodes*wireCPU(4096)) +
		n(kKVOther)*own(cpu("kvstore.get"), wireCPU(128))
	objOwn := (n(kObjGet)+n(kObjPut))*cpu("objstore.get") + n(kObjGetRange)*cpu("objstore.getrange")
	ramLocal := max(0, dLocal-spillHits)
	dcacheOwn := ramLocal*cpu("dcache.local") + dPeer*own(cpu("dcache.peer"), wireCPU(fileBytes))
	spillOwn := spillHits*cpu("spill.readat") + promotions*cpu("spill.get") + demotedChunks*cpu("spill.add")

	return []budgetLine{
		{"epoch", samples * max(cpu("epoch.stub"), cpu("epoch.cachesrc")) / files},
		{"shuffle", samples * cpu("shuffle.plan") / files},
		{"chunk", parses*cpu("chunk.parse") + ingestChunks*cpu("chunk.seal")},
		{"client", clientOwn},
		{"wire", calls * wireCPU(bytesPerCall)},
		{"server", serverOwn},
		{"kvstore", kvOwn},
		{"objstore", objOwn},
		{"dcache", dcacheOwn},
		{"spill", spillOwn},
	}
}

// printMetrics lists every metric by name with its unit.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
