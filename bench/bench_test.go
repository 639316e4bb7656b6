package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"diesel/internal/epoch"
	"diesel/internal/objstore"
)

// scaled is a run at 1/32 of the dataset with sub-second phases.
func scaled(t *testing.T, workload string, trace bool) params {
	p := defaultParams()
	p.workload, p.trace = workload, trace
	p.files = 512
	p.seconds = 0.6
	p.setups = 1
	p.warm = 100 * time.Millisecond
	p.probe = 3 * time.Millisecond
	p.rate = 200 // the race detector slows the stack tenfold; the full rate would shed
	p.dir = t.TempDir()
	return p
}

// TestWorkloads runs every workload in both modes at small scale: every
// metric BENCHMARK.json names is emitted and finite, nothing fails, and
// the counts that must be zero are.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				p := scaled(t, wl.Name, trace)
				res, err := run(&p, t.Logf)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEndDefs
				if trace {
					defs = perLayerDefs
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, %d defined", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("trace=%v: %s not emitted", trace, d.Name)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
						t.Errorf("trace=%v: %s = %v %q", trace, d.Name, m.Value, m.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if !trace {
					continue
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				epochWL := strings.HasPrefix(wl.Name, "epoch_")
				if epochWL && v("kvstore.calls_per_op") != 0 {
					// Snapshot mode: an epoch never asks the metadata store.
					t.Errorf("kvstore.calls_per_op = %v on %s, want 0", v("kvstore.calls_per_op"), wl.Name)
				}
				if !epochWL && v("kvstore.calls_per_op") == 0 {
					t.Errorf("kvstore idle on %s", wl.Name)
				}
				for _, zero := range []string{"client.retries", "wire.redials", "server.rpc_errors", "epoch.fallbacks", "kvstore.retries"} {
					if v(zero) != 0 {
						t.Errorf("%s = %v, want 0", zero, v(zero))
					}
				}
				if wl.Name == "epoch_shared_spill" && v("dcache.promotions") == 0 {
					t.Errorf("working set 4x the cache, yet nothing was promoted from spill")
				}
			}
		})
	}
}

// TestSeamsKeepFastPaths: the wrappers implement the optional interfaces
// the program upgrades to by type assertion, so interposing does not put
// the server on its non-pooled or context-less path, nor the cache source
// on its copying one.
func TestSeamsKeepFastPaths(t *testing.T) {
	var store objstore.Store = &storeSeam{}
	if _, ok := store.(objstore.PooledReader); !ok {
		t.Error("storeSeam hides objstore.PooledReader")
	}
	var backend any = &backendSeam{}
	if _, ok := backend.(interface {
		GetContext(context.Context, string) ([]byte, error)
		MGetContext(context.Context, []string) ([][]byte, error)
	}); !ok {
		t.Error("backendSeam hides the context-aware backend methods")
	}
	var fr epoch.FileReader = &readerSeam{}
	if _, ok := fr.(epoch.ViewReader); !ok {
		t.Error("readerSeam hides epoch.ViewReader")
	}
}

// TestSeamsCostNoAllocations: one epoch through the wrapped stack with
// recording off allocates what the bare stack allocates.
func TestSeamsCostNoAllocations(t *testing.T) {
	p := scaled(t, "epoch_server", false)
	d := genDataset("bench", p.seed, 2048)
	perSample := func(rec *recorder) float64 {
		st, err := deploy(rec, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		if _, err := st.load(d); err != nil {
			t.Fatal(err)
		}
		e := &env{p: &p, d: d, rec: newRecorder(), st: st}
		defer func() { e.st = nil; e.close() }()
		ds, snap, err := e.reader(0, "", "")
		if err != nil {
			t.Fatal(err)
		}
		var cl epoch.ChunkClient = ds
		var src epoch.Source
		if rec != nil {
			cl = &clientSeam{ds: ds, rec: rec}
		}
		src = epoch.NewClientSource(cl, snap, srcParallel)
		if rec != nil {
			src = &sourceSeam{inner: src, rec: rec}
		}
		c := &consumer{ds: ds, snap: snap, src: src}
		var out consumed
		for range 3 { // pools and connections settle
			if err := c.epoch(e, false, &out); err != nil {
				t.Fatal(err)
			}
		}
		out = consumed{}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range 20 {
			if err := c.epoch(e, false, &out); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		if out.bad != 0 || out.missing != 0 {
			t.Fatalf("%d wrong, %d missing samples", out.bad, out.missing)
		}
		return float64(m1.Mallocs-m0.Mallocs) / float64(out.samples)
	}
	bare, wrapped := perSample(nil), perSample(newRecorder())
	t.Logf("allocs/sample: bare %.3f, wrapped (recording off) %.3f", bare, wrapped)
	if math.Abs(wrapped-bare) > 0.03 {
		t.Errorf("wrappers change allocs/sample: bare %.3f, wrapped %.3f", bare, wrapped)
	}
}

// TestManifest: BENCHMARK.json at the root is what the program defines,
// and within the contract's limits.
func TestManifest(t *testing.T) {
	if len(perLayerDefs) > 128 || len(endToEndDefs) > 16 || len(workloads) > 8 {
		t.Errorf("too many metrics or workloads: %d per-layer, %d end-to-end, %d workloads",
			len(perLayerDefs), len(endToEndDefs), len(workloads))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || d.Bound > 0.25 {
			t.Errorf("bad metric definition %+v", d)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(opsPerS []float64) string {
		var rep report
		for i, v := range opsPerS {
			rep.Runs = append(rep.Runs, runRecord{"epoch_server", int64(i), false,
				result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {v, "1/s"}}}})
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(string(b), `"claim":null}`) {
			t.Errorf("report does not end with a null claim: %s", b)
		}
		f := t.TempDir() + "/r.json"
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return f
	}
	base := write([]float64{100, 101, 99, 100, 102})
	for _, c := range []struct {
		other   []float64
		verdict string
	}{
		{[]float64{100, 99, 101, 100, 98}, "same"},
		{[]float64{70, 71, 69, 70, 72}, "worse"},         // higher is better, bound 25%
		{[]float64{60, 100, 140, 90, 120}, "unresolved"}, // spread wider than the bound
	} {
		var out bytes.Buffer
		ok, err := compareFiles(base, write(c.other), &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.verdict) || ok != (c.verdict == "same") {
			t.Errorf("want %s, got ok=%v:\n%s", c.verdict, ok, out.String())
		}
	}
}
