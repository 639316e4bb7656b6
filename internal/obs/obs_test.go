package obs

import (
	"sync"
	"testing"
)

// TestConcurrentCounters hammers every metric type from many goroutines;
// run under -race this is the data-race proof, and the totals prove no
// increments are lost.
func TestConcurrentCounters(t *testing.T) {
	const workers = 8
	const perWorker = 10000

	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	h := r.Duration("h_seconds", "histogram")

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range perWorker {
				c.Inc()
				c.Add(2)
				h.Observe(uint64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()

	if got, want := c.Load(), uint64(3*workers*perWorker); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	s := h.Snapshot()
	if s.Count != h.Count() {
		t.Errorf("snapshot count = %d, want %d", s.Count, h.Count())
	}
}

// TestRegistryIdempotent checks that registration is keyed on
// name+labels: the same key returns the same instance, different labels
// return different instances in one family.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests", L("method", "get"))
	b := r.Counter("reqs_total", "requests", L("method", "get"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("reqs_total", "requests", L("method", "put"))
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	// Label order must not matter.
	d1 := r.Duration("multi_seconds", "", L("a", "1"), L("b", "2"))
	d2 := r.Duration("multi_seconds", "", L("b", "2"), L("a", "1"))
	if d1 != d2 {
		t.Fatal("label order changed metric identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Func("x_total", "", func() float64 { return 0 })
}

// TestFuncGaugeReplace: re-registering a Func replaces the callback, so
// a re-created component takes over its gauge.
func TestFuncGaugeReplace(t *testing.T) {
	r := NewRegistry()
	r.Func("fg", "", func() float64 { return 1 })
	r.Func("fg", "", func() float64 { return 2 })
	ms := r.Export()
	if len(ms) != 1 || ms[0].Value != 2 {
		t.Fatalf("Export after Func replace = %+v, want single value 2", ms)
	}
}

func TestExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "h", L("tier", "local")).Add(7)
	r.Func("depth", "d", func() float64 { return -3 })
	h := r.Duration("lat_seconds", "l")
	for range 100 {
		h.Observe(1 << 20) // ~1ms
	}
	ms := r.Export()
	byName := map[string]Metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if m := byName["hits_total"]; m.Value != 7 || m.Labels["tier"] != "local" || m.Type != "counter" {
		t.Errorf("hits_total = %+v", m)
	}
	if m := byName["depth"]; m.Value != -3 || m.Type != "gauge" {
		t.Errorf("depth = %+v", m)
	}
	m := byName["lat_seconds"]
	if m.Count != 100 {
		t.Errorf("lat_seconds count = %d", m.Count)
	}
	// 2^20 ns ≈ 1.05 ms; the p50 estimate must land in the right bucket
	// (between 2^19 and 2^20 ns in seconds).
	if m.P50 < float64(1<<19)*1e-9 || m.P50 > float64(1<<20)*1e-9 {
		t.Errorf("lat_seconds p50 = %v, want ~1e-3", m.P50)
	}
	if m.Sum <= 0 {
		t.Errorf("lat_seconds sum = %v", m.Sum)
	}
}
