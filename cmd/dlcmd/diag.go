package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"diesel/internal/slo"
	"diesel/internal/tracing"
)

// runDiag collects diagnostic bundles — from the /debug/diag endpoints of
// running servers and kvnodes, or from a local spool directory — and
// stitches them into one tarball, correlating the traces the bundles
// captured by trace ID the way `dlcmd trace` does for live endpoints.
func runDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ContinueOnError)
	out := fs.String("o", "diag.tar.gz", "output tarball path")
	trigger := fs.String("trigger", "", "capture a fresh bundle on every endpoint with this reason before collecting")
	spool := fs.String("spool", "", "collect from this local spool directory instead of HTTP endpoints")
	verify := fs.Bool("verify", false, "fail unless the collection holds metrics, a slow trace and pprof profiles (CI smoke gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spool == "" && fs.NArg() < 1 {
		return fmt.Errorf("usage: diag [-o out.tar.gz] [-trigger reason] [-verify] <endpoint>... | diag -spool <dir>")
	}

	var bundles []*diagBundle
	if *spool != "" {
		var err error
		bundles, err = collectSpool(*spool)
		if err != nil {
			return err
		}
	} else {
		hc := &http.Client{Timeout: 30 * time.Second}
		for _, ep := range fs.Args() {
			got, err := collectEndpoint(hc, ep, *trigger)
			if err != nil {
				return fmt.Errorf("diag: %s: %w", ep, err)
			}
			bundles = append(bundles, got...)
		}
	}
	if len(bundles) == 0 {
		return fmt.Errorf("no bundles collected (has the watchdog fired, or pass -trigger to capture now?)")
	}

	if err := writeStitched(*out, bundles); err != nil {
		return err
	}
	printDiagSummary(os.Stdout, *out, bundles)
	if *verify {
		return verifyBundles(bundles)
	}
	return nil
}

// diagBundle is one collected bundle, unpacked for inspection but kept
// raw for restitching.
type diagBundle struct {
	source   string
	manifest slo.Manifest
	files    map[string][]byte
}

// parseBundle unpacks a bundle tarball.
func parseBundle(source string, raw []byte) (*diagBundle, error) {
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("not a gzip bundle: %w", err)
	}
	tr := tar.NewReader(gz)
	b := &diagBundle{source: source, files: map[string][]byte{}}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, err
		}
		b.files[hdr.Name] = data
	}
	if err := json.Unmarshal(b.files["manifest.json"], &b.manifest); err != nil {
		return nil, fmt.Errorf("bundle has no readable manifest.json: %w", err)
	}
	return b, nil
}

// diagURL normalizes an endpoint ("host:port" or URL) to its /debug/diag
// base.
func diagURL(endpoint string) string {
	u := endpoint
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.Contains(u[strings.Index(u, "://")+3:], "/") {
		u += "/debug/diag"
	}
	return u
}

// collectEndpoint lists (or triggers) and fetches bundles from one
// /debug/diag endpoint.
func collectEndpoint(hc *http.Client, endpoint, trigger string) ([]*diagBundle, error) {
	base := diagURL(endpoint)

	var ids []string
	if trigger != "" {
		resp, err := hc.Post(base+"?trigger="+url.QueryEscape(trigger), "", nil)
		if err != nil {
			return nil, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trigger returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		var t struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &t); err != nil || t.ID == "" {
			return nil, fmt.Errorf("bad trigger response %q", body)
		}
		ids = []string{t.ID}
	} else {
		resp, err := hc.Get(base)
		if err != nil {
			return nil, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("list returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		var list struct {
			Bundles []slo.BundleInfo `json:"bundles"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			return nil, err
		}
		// The newest bundle: IDs sort by capture time, newest last.
		if n := len(list.Bundles); n > 0 {
			ids = []string{list.Bundles[n-1].ID}
		}
	}

	var out []*diagBundle
	for _, id := range ids {
		resp, err := hc.Get(base + "?fetch=" + url.QueryEscape(id))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fetch %s returned %s", id, resp.Status)
		}
		b, err := parseBundle(endpoint, raw)
		if err != nil {
			return nil, fmt.Errorf("bundle %s: %w", id, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// collectSpool reads every bundle tarball in a local spool directory
// (the embedded load harness writes one; CI verifies it offline).
func collectSpool(dir string) ([]*diagBundle, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*diagBundle
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".tar.gz") || !strings.HasPrefix(ent.Name(), "bundle-") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		b, err := parseBundle(path, raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].manifest.ID < out[j].manifest.ID })
	return out, nil
}

// writeStitched writes every bundle's files into one tarball, namespaced
// diag/<process>-<bundle-id>/.
func writeStitched(out string, bundles []*diagBundle) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)
	now := time.Now()
	for _, b := range bundles {
		prefix := fmt.Sprintf("diag/%s-%s/", b.manifest.Process, b.manifest.ID)
		names := make([]string, 0, len(b.files))
		for name := range b.files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			data := b.files[name]
			if err := tw.WriteHeader(&tar.Header{
				Name: prefix + name, Mode: 0o644, Size: int64(len(data)), ModTime: now,
			}); err != nil {
				f.Close()
				return err
			}
			if _, err := tw.Write(data); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := tw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := gz.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traces unmarshals a bundle's trace dump (nil when absent/corrupt).
func (b *diagBundle) traces() *tracing.Dump {
	var d tracing.Dump
	if err := json.Unmarshal(b.files["traces.json"], &d); err != nil {
		return nil
	}
	return &d
}

// printDiagSummary lists what was collected and which trace IDs appear
// in more than one process — the cross-process correlation handle: feed
// any of them to `dlcmd trace -id` or look them up inside the tarball.
func printDiagSummary(w io.Writer, out string, bundles []*diagBundle) {
	fmt.Fprintf(w, "collected %d bundle(s) into %s\n", len(bundles), out)
	byTrace := make(map[uint64]map[string]bool)
	for _, b := range bundles {
		m := b.manifest
		slow := 0
		if d := b.traces(); d != nil {
			slow = len(d.Slowest)
			for _, td := range append(append([]*tracing.TraceData(nil), d.Recent...), d.Slowest...) {
				procs := byTrace[td.TraceID]
				if procs == nil {
					procs = make(map[string]bool)
					byTrace[td.TraceID] = procs
				}
				procs[m.Process] = true
			}
		}
		fmt.Fprintf(w, "  %-14s %-40s reason=%q slow-traces=%d captured=%s\n",
			m.Process, m.ID, m.Reason, slow,
			time.Unix(0, m.TimeNS).Format(time.RFC3339))
	}
	type hit struct {
		id    uint64
		procs []string
	}
	var shared []hit
	for id, procs := range byTrace {
		if len(procs) < 2 {
			continue
		}
		names := make([]string, 0, len(procs))
		for p := range procs {
			names = append(names, p)
		}
		sort.Strings(names)
		shared = append(shared, hit{id, names})
	}
	if len(shared) > 0 {
		sort.Slice(shared, func(i, j int) bool { return shared[i].id < shared[j].id })
		fmt.Fprintf(w, "traces captured by more than one process:\n")
		for _, h := range shared {
			fmt.Fprintf(w, "  %s  [%s]\n", tracing.FormatID(h.id), strings.Join(h.procs, " "))
		}
	}
}

// verifyBundles enforces the CI acceptance bar: somewhere in the
// collection there must be a non-empty metrics export, at least one
// slow trace, and goroutine+heap+CPU profiles.
func verifyBundles(bundles []*diagBundle) error {
	var haveMetrics, haveSlow, haveGoroutine, haveHeap, haveCPU bool
	for _, b := range bundles {
		var metrics []json.RawMessage
		if json.Unmarshal(b.files["metrics.json"], &metrics) == nil && len(metrics) > 0 {
			haveMetrics = true
		}
		if d := b.traces(); d != nil && len(d.Slowest) > 0 {
			haveSlow = true
		}
		if len(b.files["pprof/goroutine.pb.gz"]) > 0 {
			haveGoroutine = true
		}
		if len(b.files["pprof/heap.pb.gz"]) > 0 {
			haveHeap = true
		}
		if len(b.files["pprof/cpu.pb.gz"]) > 0 || len(b.files["pprof/cpu.SKIPPED"]) > 0 {
			haveCPU = true
		}
	}
	var missing []string
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{haveMetrics, "a non-empty metrics.json"},
		{haveSlow, "at least one slow trace"},
		{haveGoroutine, "a goroutine profile"},
		{haveHeap, "a heap profile"},
		{haveCPU, "a CPU profile"},
	} {
		if !c.ok {
			missing = append(missing, c.what)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("verify failed: no bundle holds %s", strings.Join(missing, "; "))
	}
	fmt.Println("verify ok: metrics, slow trace and pprof profiles present")
	return nil
}
