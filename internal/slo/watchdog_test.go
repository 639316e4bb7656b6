package slo

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diesel/internal/obs"
	"diesel/internal/tracing"
)

// newTestWatchdog returns a watchdog with a tiny CPU profile window and
// a temp spool.
func newTestWatchdog(t *testing.T, cfg WatchdogConfig) *Watchdog {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.CPUProfile == 0 {
		cfg.CPUProfile = 20 * time.Millisecond
	}
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatalf("NewWatchdog: %v", err)
	}
	t.Cleanup(w.Close)
	t.Cleanup(func() { obs.EnableEvents(false); obs.ResetEvents() })
	return w
}

// readBundle extracts a bundle into name → contents.
func readBundle(t *testing.T, r io.Reader) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(r)
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	out := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("tar: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatalf("tar read %s: %v", hdr.Name, err)
		}
		out[hdr.Name] = data
	}
	return out
}

func TestWatchdogBundleContents(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("t_demo_total", "demo").Add(7)
	w := newTestWatchdog(t, WatchdogConfig{
		Registry: reg,
		Roster: func() any {
			return []map[string]string{{"job": "j1", "tenant": "alice"}}
		},
		Status: func() []ObjectiveStatus {
			return []ObjectiveStatus{{Name: "read-p99"}}
		},
	})

	obs.Publish("breaker-trip", "master 1 dead") // rides into events.json
	id, err := w.trigger("unit-test")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	f, size, err := w.Open(id)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if size <= 0 {
		t.Fatal("empty bundle")
	}
	files := readBundle(t, f)

	var m Manifest
	if err := json.Unmarshal(files["manifest.json"], &m); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if m.ID != id || m.Process != tracing.Process() || m.Reason != "unit-test" || len(m.SLO) != 1 {
		t.Fatalf("bad manifest: %+v", m)
	}
	var metrics []obs.Metric
	if err := json.Unmarshal(files["metrics.json"], &metrics); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	found := false
	for _, mm := range metrics {
		if mm.Name == "t_demo_total" && mm.Value == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("t_demo_total missing from metrics.json: %v", metrics)
	}
	var dump tracing.Dump
	if err := json.Unmarshal(files["traces.json"], &dump); err != nil {
		t.Fatalf("traces.json: %v", err)
	}
	var events []obs.Event
	if err := json.Unmarshal(files["events.json"], &events); err != nil {
		t.Fatalf("events.json: %v", err)
	}
	if len(events) == 0 || events[len(events)-1].Kind != "breaker-trip" {
		t.Fatalf("events.json missing the breaker-trip event: %v", events)
	}
	if !strings.Contains(string(files["jobs.json"]), "alice") {
		t.Fatalf("jobs.json missing roster: %s", files["jobs.json"])
	}
	for _, name := range []string{"pprof/goroutine.pb.gz", "pprof/heap.pb.gz"} {
		if len(files[name]) == 0 {
			t.Fatalf("%s missing or empty", name)
		}
	}
	if _, cpu := files["pprof/cpu.pb.gz"]; !cpu {
		// Acceptable only when another profiler owns the CPU profiler.
		if _, skipped := files["pprof/cpu.SKIPPED"]; !skipped {
			t.Fatal("bundle has neither cpu profile nor skip marker")
		}
	}
}

func TestWatchdogSpoolCapAndCooldown(t *testing.T) {
	w := newTestWatchdog(t, WatchdogConfig{
		MaxBundles: 3,
		Cooldown:   time.Hour,
		CPUProfile: -1, // skip; this test captures many bundles
	})
	for i := 0; i < 6; i++ {
		if _, err := w.trigger("fill"); err != nil {
			t.Fatalf("Trigger %d: %v", i, err)
		}
	}
	if got := len(w.List()); got != 3 {
		t.Fatalf("spool holds %d bundles, want 3", got)
	}
	// Cooldown: an async trigger right after a capture is dropped.
	before := w.skipped.Load()
	w.triggerAsync("storm")
	w.wg.Wait()
	if got := len(w.List()); got != 3 {
		t.Fatalf("cooldown did not drop the trigger; spool = %d", got)
	}
	if w.skipped.Load() == before {
		t.Fatal("diesel_diag_skipped_total did not count the dropped trigger")
	}
}

// TestWatchdogEventTrigger pins the trigger kinds: the engine's slo-breach
// and dcache's breaker-trip capture a bundle; the kinds of the deleted
// storm detectors, and anything else, capture none.
func TestWatchdogEventTrigger(t *testing.T) {
	w := newTestWatchdog(t, WatchdogConfig{CPUProfile: -1, Cooldown: time.Nanosecond})
	w.Watch()
	for _, tc := range []struct {
		kind    string
		capture bool
	}{
		{"slo-breach", true},
		{"breaker-trip", true},
		{"eviction-storm", false},
		{"hedge-spike", false},
		{"chitchat", false},
	} {
		before := len(w.List())
		obs.Publish(tc.kind, "test event")
		w.wg.Wait()
		bundles := w.List()
		want := 0
		if tc.capture {
			want = 1
		}
		if got := len(bundles) - before; got != want {
			t.Fatalf("%s captured %d bundles, want %d", tc.kind, got, want)
		}
		if tc.capture && !strings.Contains(bundles[len(bundles)-1].ID, tc.kind) {
			t.Fatalf("bundle id %q does not carry the trigger kind %s", bundles[len(bundles)-1].ID, tc.kind)
		}
	}
}

func TestWatchdogOpenRejectsTraversal(t *testing.T) {
	w := newTestWatchdog(t, WatchdogConfig{CPUProfile: -1})
	for _, id := range []string{"../etc/passwd", "bundle-1-001-x/../../y", "", "BUNDLE-1-001-X"} {
		if _, _, err := w.Open(id); err == nil {
			t.Fatalf("Open(%q) succeeded, want error", id)
		}
	}
}

func TestDiagHandler(t *testing.T) {
	w := newTestWatchdog(t, WatchdogConfig{CPUProfile: -1, Cooldown: time.Nanosecond})
	h := Handler(w)

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	// Empty list.
	rec := get("/debug/diag")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("list: code=%d ct=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var list diagList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list json: %v", err)
	}
	if list.Process != tracing.Process() || len(list.Bundles) != 0 {
		t.Fatalf("unexpected list: %+v", list)
	}

	// Trigger.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/diag?trigger=smoke", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trigger: code=%d body=%s", rec.Code, rec.Body)
	}
	var trig struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trig); err != nil || trig.ID == "" {
		t.Fatalf("trigger response: %s (%v)", rec.Body, err)
	}

	// Fetch round trip.
	rec = get("/debug/diag?fetch=" + trig.ID)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/gzip" {
		t.Fatalf("fetch: code=%d ct=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	files := readBundle(t, rec.Body)
	if _, ok := files["manifest.json"]; !ok {
		t.Fatal("fetched bundle missing manifest.json")
	}

	// Error contract: JSON bodies with correct statuses.
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/debug/diag?fetch=nope", http.StatusNotFound},
		{"/debug/diag?fetch=", http.StatusBadRequest},
		{"/debug/diag?trigger=", http.StatusBadRequest},
		{"/debug/diag?bogus=1", http.StatusBadRequest},
		{"/debug/diag?fetch=" + trig.ID + "&trigger=x", http.StatusBadRequest},
	} {
		rec = get(tc.url)
		if rec.Code != tc.code {
			t.Errorf("%s: code=%d want %d", tc.url, rec.Code, tc.code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type=%q want application/json", tc.url, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q not a JSON error (%v)", tc.url, rec.Body, err)
		}
	}

	// Nil watchdog: mounted but disabled.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/diag", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("nil watchdog: code=%d want 503", rec.Code)
	}
}

// TestDiagTriggerWantsPost: a capture runs a CPU profile, so only POST
// triggers one; a GET (a browser, a link prefetcher) is refused and
// leaves the spool empty.
func TestDiagTriggerWantsPost(t *testing.T) {
	w := newTestWatchdog(t, WatchdogConfig{CPUProfile: -1, Cooldown: time.Nanosecond})
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPut} {
		rec := httptest.NewRecorder()
		Handler(w).ServeHTTP(rec, httptest.NewRequest(method, "/debug/diag?trigger=prefetch", nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
			t.Errorf("%s trigger: code=%d Allow=%q, want 405 and POST", method, rec.Code, rec.Header().Get("Allow"))
		}
	}
	if got := w.List(); len(got) != 0 {
		t.Fatalf("refused triggers captured bundles: %v", got)
	}
}
