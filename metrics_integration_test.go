package diesel

// Observability integration test: boot a real stack, drive a put/get
// round trip over loopback TCP, then scrape the -metrics endpoint the
// way Prometheus would and check that the exposition is parseable and
// that every metric kind — counter, gauge, histogram — reports nonzero
// traffic from the round trip.

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"diesel/internal/core"
	"diesel/internal/obs"
)

func TestMetricsEndpointAfterRoundTrip(t *testing.T) {
	dep, err := core.Deploy(core.Config{KVNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	dep.Server().RegisterMetrics(obs.Default())

	addr, stop, err := obs.Serve("127.0.0.1:0", obs.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// The round trip whose traffic the scrape must reflect.
	cl, err := dep.NewClient("metrics-it", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	payload := []byte("observability payload")
	if err := cl.DefaultDataset().Put("a/b.bin", payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.DefaultDataset().Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.DefaultDataset().Get(context.Background(), "a/b.bin")
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}

	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	scrape, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	// At least one nonzero sample of each kind, from the round trip.
	var counter, gauge string
	for _, s := range scrape.Samples {
		if s.Value <= 0 {
			continue
		}
		switch scrape.Types[s.Name] {
		case "counter":
			if counter == "" {
				counter = s.Name
			}
		case "gauge":
			if gauge == "" {
				gauge = s.Name
			}
		}
	}
	if counter == "" {
		t.Error("no nonzero counter in scrape")
	}
	if gauge == "" {
		t.Error("no nonzero gauge in scrape")
	}
	var hist string
	for _, h := range scrape.Histograms {
		if h.Count > 0 && len(h.Buckets) > 0 {
			hist = h.Name
			break
		}
	}
	if hist == "" {
		t.Error("no histogram with observations in scrape")
	}
	t.Logf("nonzero counter=%s gauge=%s histogram=%s", counter, gauge, hist)

	// Specific families the round trip must have touched.
	want := map[string]bool{
		"diesel_wire_frames_total": false, // client↔server RPC framing
		"diesel_kv_ops_total":      false, // server→KV metadata traffic
		"diesel_server_kv_keys":    false, // scrape-time DBSize gauge
	}
	for _, s := range scrape.Samples {
		if _, ok := want[s.Name]; ok && s.Value > 0 {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("expected nonzero %s after round trip", name)
		}
	}

	// The sibling endpoints on the same mux.
	for _, path := range []string{"/healthz", "/debug/pprof/", "/debug/vars"} {
		r, err := hc.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, r.Status)
		}
	}
}
