package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of an ascending-sorted slice
// by nearest rank; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highestSupported returns the highest of p99.9/p99/p95/p90 that has at
// least ten samples beyond it, with its label — the rule the metrics
// guide gives for reporting a tail from a finite sample.
func highestSupported(sorted []float64) (string, float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			return c.label, percentile(sorted, c.q)
		}
	}
	return "max", percentile(sorted, 1)
}

// usage is one reading of the process-wide cost counters the end-to-end
// metrics are deltas of.
type usage struct {
	mallocs uint64
	cpu     time.Duration
}

// readUsage stops the world (ReadMemStats), so it is called only at
// window edges, never inside one.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{mallocs: ms.Mallocs, cpu: cpu}
}

// heapSampler tracks the maximum in-use heap over a window without
// stopping the world: runtime/metrics reads are lock-free, unlike
// ReadMemStats, so a 20 Hz sampler does not perturb the run it watches.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	h.peak = heapInuse(s)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := heapInuse(s); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
