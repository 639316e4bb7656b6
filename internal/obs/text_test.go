package obs

import (
	"math"
	"strings"
	"testing"
)

func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("diesel_ops_total", "Operations served.", L("method", "get")).Add(3)
	r.Counter("diesel_ops_total", "Operations served.", L("method", "q\"u\\o\nte")).Inc()
	r.Func("diesel_depth", "Queue depth; can\ngo \\ down.", func() float64 { return -7 })
	r.Func("diesel_kv_keys", "KV keys.", func() float64 { return 12.5 })
	h := r.histogram("diesel_batch_size", "Batch sizes.", 1)
	h.Observe(1)
	h.Observe(3)
	h.Observe(8)
	return r
}

const goldenText = `# HELP diesel_ops_total Operations served.
# TYPE diesel_ops_total counter
diesel_ops_total{method="get"} 3
diesel_ops_total{method="q\"u\\o\nte"} 1
# HELP diesel_depth Queue depth; can\ngo \\ down.
# TYPE diesel_depth gauge
diesel_depth -7
# HELP diesel_kv_keys KV keys.
# TYPE diesel_kv_keys gauge
diesel_kv_keys 12.5
# HELP diesel_batch_size Batch sizes.
# TYPE diesel_batch_size histogram
diesel_batch_size_bucket{le="1"} 1
diesel_batch_size_bucket{le="2"} 1
diesel_batch_size_bucket{le="4"} 2
diesel_batch_size_bucket{le="8"} 3
diesel_batch_size_bucket{le="+Inf"} 3
diesel_batch_size_sum 12
diesel_batch_size_count 3
`

// TestGoldenText pins the exposition format byte-for-byte: HELP/TYPE
// lines, label escaping (backslash, quote, newline), negative gauges,
// func gauges, and cumulative histogram rendering with zero-tail
// trimming.
func TestGoldenText(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenText {
		t.Errorf("rendered text differs from golden:\n--- got ---\n%s\n--- want ---\n%s", got, goldenText)
	}
}

// TestDurationRendering spot-checks that nanosecond observations render
// in seconds.
func TestDurationRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Duration("lat_seconds", "Latency.")
	h.Observe(1 << 30) // ~1.07s
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="1.073741824"} 1`, // 2^30 ns in seconds
		`lat_seconds_bucket{le="+Inf"} 1`,
		`lat_seconds_sum 1.073741824`,
		`lat_seconds_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParseRoundTrip feeds the renderer's output back through the
// scraper dlcmd stats uses.
func TestParseRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Types["diesel_ops_total"] != "counter" || s.Types["diesel_batch_size"] != "histogram" {
		t.Errorf("types = %v", s.Types)
	}

	var gets, quote, depth, keys float64
	var sawQuote bool
	for _, m := range s.Samples {
		switch {
		case m.Name == "diesel_ops_total" && m.Labels["method"] == "get":
			gets = m.Value
		case m.Name == "diesel_ops_total" && m.Labels["method"] == "q\"u\\o\nte":
			quote, sawQuote = m.Value, true
		case m.Name == "diesel_depth":
			depth = m.Value
		case m.Name == "diesel_kv_keys":
			keys = m.Value
		}
	}
	if gets != 3 || depth != -7 || keys != 12.5 {
		t.Errorf("parsed values: gets=%v depth=%v keys=%v", gets, depth, keys)
	}
	if !sawQuote || quote != 1 {
		t.Errorf("label unescaping failed: sawQuote=%v value=%v", sawQuote, quote)
	}

	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	h := s.Histograms[0]
	if h.Name != "diesel_batch_size" || h.Count != 3 || h.Sum != 12 {
		t.Errorf("histogram = %+v", h)
	}
	if got := h.Buckets[len(h.Buckets)-1]; !math.IsInf(got.LE, 1) || got.Cum != 3 {
		t.Errorf("+Inf bucket = %+v", got)
	}
	// Median of {1,3,8}: rank 1.5 lands in the le=4 bucket.
	if q := h.Quantile(0.5); q < 1 || q > 4 {
		t.Errorf("scraped p50 = %v, want within (1,4]", q)
	}
}

func TestParseMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric_without_value\n",
		`m{x="unterminated} 1` + "\n",
		"m notanumber\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
	// Unknown comment lines and blank lines are ignored.
	s, err := ParseText(strings.NewReader("\n# EOF\n# random comment x\nok 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 1 || s.Samples[0].Value != 1 {
		t.Errorf("samples = %+v", s.Samples)
	}
}
