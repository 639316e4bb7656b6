package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestBucketBoundaries pins the power-of-two bucket layout: bucket i
// covers (2^(i-1), 2^i], bucket 0 covers [0,1].
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{1 << 38, 38},
		{1<<38 + 1, 39},
		{math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// The le bound of bucket i must be 2^i: observing exactly 2^i must
	// stay in bucket i, and 2^i+1 must not.
	for i := 1; i < NumBuckets-1; i++ {
		v := uint64(1) << i
		if got := bucketOf(v); got != i {
			t.Errorf("bucketOf(2^%d) = %d, want %d", i, got, i)
		}
	}
}

// TestQuantileAgainstOracle checks the bucket-interpolated quantile
// against the true sample quantile on a log-uniform distribution. The
// power-of-two buckets guarantee the estimate lies in the same bucket as
// the true value, so the ratio is bounded by one power of two.
func TestQuantileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	var h Histogram
	samples := make([]float64, n)
	for i := range samples {
		// log-uniform over [16ns, ~64ms] — the latency range this
		// system produces.
		v := math.Exp(rng.Float64()*math.Log(4e6)) * 16
		samples[i] = v
		h.Observe(uint64(v))
	}
	sort.Float64s(samples)
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		idx := int(math.Ceil(q*n)) - 1
		if idx < 0 {
			idx = 0
		}
		oracle := samples[idx]
		got := s.Quantile(q)
		ratio := got / oracle
		if ratio < 0.5-1e-9 || ratio > 2.0+1e-9 {
			t.Errorf("q=%v: estimate %v vs oracle %v (ratio %.3f, want within [0.5, 2])",
				q, got, oracle, ratio)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(100)
	s := h.Snapshot()
	lo, hi := bucketBounds(bucketOf(100))
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got < lo || got > hi {
			t.Errorf("single-sample quantile(%v) = %v, want within (%v, %v]", q, got, lo, hi)
		}
	}
	// Out-of-range q clamps rather than exploding.
	if got := s.Quantile(-1); got < lo || got > hi {
		t.Errorf("quantile(-1) = %v out of bucket", got)
	}
	if got := s.Quantile(2); got < lo || got > hi {
		t.Errorf("quantile(2) = %v out of bucket", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := range uint64(100) {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != 200 {
		t.Errorf("merged count = %d, want 200", merged.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Errorf("merged sum = %d, want %d", merged.Sum, sa.Sum+sb.Sum)
	}
	var both Histogram
	for i := range uint64(100) {
		both.Observe(i)
		both.Observe(i * 1000)
	}
	if got, want := both.Snapshot().Counts, merged.Counts; got != want {
		t.Errorf("merge differs from combined observation:\n got %v\nwant %v", got, want)
	}
}

// TestQuantileMergeAcrossShards is the sharded-recorder contract the load
// harness depends on: observations scattered across N histograms, merged
// as snapshots, must yield exactly the quantiles of one histogram that
// saw every observation. The power-of-two buckets are aligned by
// construction, so this is exact equality, not approximation.
func TestQuantileMergeAcrossShards(t *testing.T) {
	const shards = 16
	rng := rand.New(rand.NewSource(7))
	var whole Histogram
	parts := make([]Histogram, shards)
	for i := 0; i < 50000; i++ {
		// Mixed scales: cache hits (~µs), RPCs (~ms), stalls (~s).
		v := uint64(rng.Int63n(int64(time.Second))) >> uint(rng.Intn(20))
		whole.Observe(v)
		parts[rng.Intn(shards)].Observe(v)
	}
	var merged HistSnapshot
	for i := range parts {
		merged.Merge(parts[i].Snapshot())
	}
	ref := whole.Snapshot()
	if merged.Counts != ref.Counts || merged.Count != ref.Count || merged.Sum != ref.Sum {
		t.Fatalf("merged snapshot differs from whole histogram")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := merged.Quantile(q), ref.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v, whole %v", q, got, want)
		}
	}
}

// TestExportQuantiles pins that Export carries the full quantile ladder
// (p50/p90/p95/p99/p999) in rendered units — the capacity report and
// BENCH_*.json snapshots read these fields.
func TestExportQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Duration("x_seconds", "test")
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(time.Millisecond))
	}
	for i := 0; i < 5; i++ {
		h.Observe(uint64(time.Second))
	}
	var m *Metric
	for _, e := range reg.Export() {
		if e.Name == "x_seconds" {
			m = &e
			break
		}
	}
	if m == nil {
		t.Fatal("x_seconds not exported")
	}
	if m.P50 <= 0 || m.P90 <= 0 || m.P95 <= 0 || m.P99 <= 0 || m.P999 <= 0 {
		t.Fatalf("missing quantiles: %+v", m)
	}
	if !(m.P50 <= m.P90 && m.P90 <= m.P95 && m.P95 <= m.P99 && m.P99 <= m.P999) {
		t.Errorf("quantiles not monotone: %+v", m)
	}
	// The five 1s outliers sit past rank 0.999 of 1005 observations.
	if m.P999 < 0.5 {
		t.Errorf("p999 = %v, want ≥ 0.5s (the outlier's bucket)", m.P999)
	}
	if m.P50 > 0.01 {
		t.Errorf("p50 = %v, want ~1ms", m.P50)
	}
}

func TestObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-5 * time.Second) // clamps to 0
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Counts[0] != 1 {
		t.Errorf("negative duration did not clamp into bucket 0")
	}
	if got := s.Sum; got != uint64(3*time.Millisecond) {
		t.Errorf("sum = %d, want %d", got, uint64(3*time.Millisecond))
	}
	if got := s.Mean(); got != float64(3*time.Millisecond)/2 {
		t.Errorf("mean = %v", got)
	}
}

func TestFractionAbove(t *testing.T) {
	var h Histogram
	// 90 obs at ~1µs, 10 at ~100ms.
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000_000)
	}
	s := h.Snapshot()
	if got := s.FractionAbove(1_000_000); got < 0.09 || got > 0.11 {
		t.Fatalf("FractionAbove(1ms) = %v, want ~0.1", got)
	}
	if got := s.FractionAbove(1 << 39); got != 0 {
		t.Fatalf("FractionAbove(max) = %v, want 0", got)
	}
	if got := (HistSnapshot{}).FractionAbove(5); got != 0 {
		t.Fatalf("FractionAbove on empty = %v, want 0", got)
	}
}
