package obs

import (
	"testing"
	"time"
)

// TestHotPathAllocationFree is the acceptance gate for instrumenting the
// wire layer: Counter.Add and Histogram.Observe must not allocate.
func TestHotPathAllocationFree(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v times per call", n)
	}
	var h Histogram
	v := uint64(12345)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 977 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(3 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.ObserveDuration allocates %v times per call", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for range b.N {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := range b.N {
		h.Observe(uint64(i) * 977)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			h.Observe(v)
			v += 977
		}
	})
}

func BenchmarkHistogramSince(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for range b.N {
		h.Since(time.Now())
	}
}

func BenchmarkRegistryWriteText(b *testing.B) {
	r := NewRegistry()
	for i := range 20 {
		r.Counter("c_total", "c", L("i", string(rune('a'+i)))).Add(uint64(i))
		h := r.Duration("h_seconds", "h", L("i", string(rune('a'+i))))
		for j := range 100 {
			h.Observe(uint64(j) << 10)
		}
	}
	b.ReportAllocs()
	for range b.N {
		r.WriteText(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
