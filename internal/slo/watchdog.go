package slo

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diesel/internal/obs"
	"diesel/internal/tracing"
)

// WatchdogConfig tunes the anomaly watchdog. Zero values take defaults.
type WatchdogConfig struct {
	// Dir is the on-disk spool for bundles (required; created if
	// missing).
	Dir string

	// MaxBundles caps the spool's bundle count (default 16); oldest
	// bundles are evicted first, as they are past maxSpoolBytes.
	MaxBundles int

	// CPUProfile is how long the bundle's CPU profile runs (default 5s;
	// 0 uses the default, negative skips the CPU profile). The capture
	// blocks for this long, which is why event-driven captures run
	// asynchronously.
	CPUProfile time.Duration

	// Cooldown drops triggers arriving within it of the last completed
	// capture, so an event storm yields one bundle, not fifty
	// (default 30s).
	Cooldown time.Duration

	// Traces caps the recent/slowest trace lists embedded per bundle
	// (default 32).
	Traces int

	// Registry to export into metrics.json; defaults to obs.Default().
	Registry *obs.Registry

	// Roster, when set, is serialized into jobs.json (wire it to the
	// server's JobRegistry.Jobs).
	Roster func() any

	// Status, when set, is embedded in the manifest (wire it to
	// Engine.Status).
	Status func() []ObjectiveStatus
}

// maxSpoolBytes caps the spool's total size.
const maxSpoolBytes = 256 << 20

func (c *WatchdogConfig) defaults() {
	if c.MaxBundles <= 0 {
		c.MaxBundles = 16
	}
	if c.CPUProfile == 0 {
		c.CPUProfile = 5 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Traces <= 0 {
		c.Traces = 32
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
}

// Watchdog captures diagnostic bundles into a capped spool. One per
// process.
type Watchdog struct {
	cfg      WatchdogConfig
	captMu   sync.Mutex // serializes captures (and the CPU profiler)
	lastCapt atomic.Int64
	pending  atomic.Int32 // async captures in flight, bounded to 1
	watching atomic.Bool
	wg       sync.WaitGroup

	bundles *obs.Counter
	skipped *obs.Counter
}

// cpuProfileMu guards runtime/pprof's single global CPU profiler across
// every watchdog in the process (tests run several).
var cpuProfileMu sync.Mutex

// NewWatchdog creates the spool directory and returns a watchdog. It
// enables the obs event ring (the flight recorder needs events flowing
// before an incident, not after).
func NewWatchdog(cfg WatchdogConfig) (*Watchdog, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("slo: watchdog needs a spool dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("slo: create spool: %w", err)
	}
	w := &Watchdog{
		cfg: cfg,
		bundles: cfg.Registry.Counter("diesel_diag_bundles_total",
			"Diagnostic bundles captured by the anomaly watchdog."),
		skipped: cfg.Registry.Counter("diesel_diag_skipped_total",
			"Watchdog triggers dropped by cooldown or capture backpressure."),
	}
	obs.EnableEvents(true)
	return w, nil
}

// Watch subscribes the watchdog to the obs event ring: the engine's
// slo-breach and dcache's breaker-trip events capture a bundle
// asynchronously; other kinds are ignored.
func (w *Watchdog) Watch() {
	w.watching.Store(true)
	obs.OnEvent(func(ev obs.Event) {
		switch ev.Kind {
		case "slo-breach", "breaker-trip":
			if w.watching.Load() {
				w.triggerAsync(ev.Kind)
			}
		}
	})
}

// Close stops watching and waits for in-flight captures.
func (w *Watchdog) Close() {
	if w.watching.Swap(false) {
		obs.OnEvent(nil)
	}
	w.wg.Wait()
}

// triggerAsync captures a bundle in the background, dropping the trigger
// if a capture is already running or the cooldown hasn't elapsed.
func (w *Watchdog) triggerAsync(reason string) {
	if !w.admit() {
		return
	}
	if !w.pending.CompareAndSwap(0, 1) {
		w.skipped.Inc()
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer w.pending.Store(0)
		if _, err := w.trigger(reason); err != nil {
			slog.Warn("slo: diagnostic bundle capture failed", "reason", reason, "err", err)
		}
	}()
}

// admit applies the cooldown.
func (w *Watchdog) admit() bool {
	last := w.lastCapt.Load()
	if last != 0 && time.Since(time.Unix(0, last)) < w.cfg.Cooldown {
		w.skipped.Inc()
		return false
	}
	return true
}

// trigger synchronously captures a bundle (including the CPU profile
// window) and returns its ID. The cooldown clock restarts when the
// capture completes.
func (w *Watchdog) trigger(reason string) (string, error) {
	w.captMu.Lock()
	defer w.captMu.Unlock()
	id, err := w.capture(reason)
	if err != nil {
		return "", err
	}
	w.lastCapt.Store(time.Now().UnixNano())
	w.bundles.Inc()
	w.prune()
	return id, nil
}

// reasonSlug keeps bundle filenames shell- and URL-safe.
var reasonSlug = regexp.MustCompile(`[^a-z0-9-]+`)

// bundleSeq disambiguates bundles captured in the same millisecond.
var bundleSeq atomic.Uint64

// capture writes one bundle. The tarball is assembled in memory (its
// pieces are bounded: capped metric export, capped trace lists, capped
// event ring, three profiles) and written atomically via rename so a
// concurrent fetch never sees a torn file.
func (w *Watchdog) capture(reason string) (string, error) {
	now := time.Now()
	slug := reasonSlug.ReplaceAllString(strings.ToLower(reason), "-")
	slug = strings.Trim(slug, "-")
	if slug == "" {
		slug = "manual"
	}
	if len(slug) > 48 {
		slug = slug[:48]
	}
	id := fmt.Sprintf("bundle-%d-%03d-%s", now.UnixMilli(), bundleSeq.Add(1)%1000, slug)

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)

	addJSON := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			data = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
		}
		return addFile(tw, name, data, now)
	}

	manifest := Manifest{
		ID:      id,
		Process: tracing.Process(),
		Reason:  reason,
		TimeNS:  now.UnixNano(),
	}
	if w.cfg.Status != nil {
		manifest.SLO = w.cfg.Status()
	}
	if err := addJSON("manifest.json", manifest); err != nil {
		return "", err
	}
	if err := addJSON("metrics.json", w.cfg.Registry.Export()); err != nil {
		return "", err
	}
	if err := addJSON("traces.json", tracing.Snapshot(w.cfg.Traces)); err != nil {
		return "", err
	}
	if err := addJSON("events.json", obs.RecentEvents(0)); err != nil {
		return "", err
	}
	if w.cfg.Roster != nil {
		if err := addJSON("jobs.json", w.cfg.Roster()); err != nil {
			return "", err
		}
	}

	// Profiles. goroutine and heap are instantaneous; the CPU profile
	// observes the incident for CPUProfile.
	var prof bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&prof, 0)
		if err := addFile(tw, "pprof/goroutine.pb.gz", prof.Bytes(), now); err != nil {
			return "", err
		}
	}
	prof = bytes.Buffer{}
	if p := pprof.Lookup("heap"); p != nil {
		p.WriteTo(&prof, 0)
		if err := addFile(tw, "pprof/heap.pb.gz", prof.Bytes(), now); err != nil {
			return "", err
		}
	}
	if w.cfg.CPUProfile > 0 {
		prof = bytes.Buffer{}
		cpuProfileMu.Lock()
		if err := pprof.StartCPUProfile(&prof); err == nil {
			time.Sleep(w.cfg.CPUProfile)
			pprof.StopCPUProfile()
			cpuProfileMu.Unlock()
			if err := addFile(tw, "pprof/cpu.pb.gz", prof.Bytes(), now); err != nil {
				return "", err
			}
		} else {
			// Another profiler is running (e.g. go test -cpuprofile);
			// note it instead of failing the whole bundle.
			cpuProfileMu.Unlock()
			addFile(tw, "pprof/cpu.SKIPPED", []byte(err.Error()+"\n"), now)
		}
	}

	if err := tw.Close(); err != nil {
		return "", err
	}
	if err := gz.Close(); err != nil {
		return "", err
	}

	final := filepath.Join(w.cfg.Dir, id+".tar.gz")
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return id, nil
}

// addFile writes one regular file into the tar stream.
func addFile(tw *tar.Writer, name string, data []byte, t time.Time) error {
	if err := tw.WriteHeader(&tar.Header{
		Name:    name,
		Mode:    0o644,
		Size:    int64(len(data)),
		ModTime: t,
	}); err != nil {
		return err
	}
	_, err := tw.Write(data)
	return err
}

// Manifest is bundle-internal metadata (manifest.json).
type Manifest struct {
	ID      string            `json:"id"`
	Process string            `json:"process"`
	Reason  string            `json:"reason"`
	TimeNS  int64             `json:"time_ns"`
	SLO     []ObjectiveStatus `json:"slo,omitempty"`
}

// BundleInfo describes one spooled bundle.
type BundleInfo struct {
	ID     string `json:"id"`
	Bytes  int64  `json:"bytes"`
	TimeNS int64  `json:"time_ns"`
}

// bundleName matches only IDs this watchdog generates, which is what
// makes Open safe against path traversal.
var bundleName = regexp.MustCompile(`^bundle-[0-9]+-[0-9]{3}-[a-z0-9-]+$`)

// List returns the spooled bundles, oldest first.
func (w *Watchdog) List() []BundleInfo {
	ents, err := os.ReadDir(w.cfg.Dir)
	if err != nil {
		return nil
	}
	var out []BundleInfo
	for _, ent := range ents {
		name, ok := strings.CutSuffix(ent.Name(), ".tar.gz")
		if !ok || !bundleName.MatchString(name) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		out = append(out, BundleInfo{ID: name, Bytes: info.Size(), TimeNS: info.ModTime().UnixNano()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Open streams a bundle by ID. The caller closes the reader.
func (w *Watchdog) Open(id string) (io.ReadCloser, int64, error) {
	if !bundleName.MatchString(id) {
		return nil, 0, fmt.Errorf("slo: bad bundle id %q", id)
	}
	path := filepath.Join(w.cfg.Dir, id+".tar.gz")
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// prune enforces the spool caps, deleting oldest bundles first.
func (w *Watchdog) prune() {
	bundles := w.List() // oldest first (IDs sort by capture time)
	var total int64
	for _, b := range bundles {
		total += b.Bytes
	}
	for len(bundles) > w.cfg.MaxBundles || (total > maxSpoolBytes && len(bundles) > 1) {
		victim := bundles[0]
		bundles = bundles[1:]
		total -= victim.Bytes
		os.Remove(filepath.Join(w.cfg.Dir, victim.ID+".tar.gz"))
	}
}
