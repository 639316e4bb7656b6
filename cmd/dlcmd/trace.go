package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"diesel/internal/tracing"
)

const (
	fetchTraces = 32 // traces asked of each endpoint's recent and slowest lists
	showTraces  = 5  // stitched traces printed, slowest first
)

// runTrace scrapes /debug/traces?format=json from one or more -metrics
// endpoints (diesel-server, kvnode, or anything serving the obs mux) and
// stitches the spans that share a trace ID into one cross-process tree.
// Each process only holds its own spans; the parent links written into the
// wire trace block are what joins them back together here.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	id := fs.String("id", "", "show only this trace ID (hex)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: trace [-id <hex>] <host:port | url> [more endpoints...]")
	}

	merged := make(map[uint64]*mergedTrace)
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, ep := range fs.Args() {
		d, err := fetchDump(hc, ep, *id)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", ep, err)
		}
		for _, td := range d {
			m := merged[td.TraceID]
			if m == nil {
				m = &mergedTrace{id: td.TraceID}
				merged[td.TraceID] = m
			}
			m.add(td)
		}
	}
	if len(merged) == 0 {
		fmt.Println("no traces collected (is tracing enabled on the endpoints?)")
		return nil
	}

	all := make([]*mergedTrace, 0, len(merged))
	for _, m := range merged {
		all = append(all, m)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].duration() > all[j].duration() })
	if *id == "" && len(all) > showTraces {
		all = all[:showTraces]
	}
	var b strings.Builder
	for _, m := range all {
		fmt.Fprintf(&b, "trace %s  %v  root=%s  processes=[%s]  (%d spans)\n",
			tracing.FormatID(m.id), m.duration().Round(time.Microsecond),
			m.root(), strings.Join(m.processes(), " "), len(m.spans))
		tracing.WriteTree(&b, m.spans)
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
	return nil
}

// fetchDump pulls one endpoint's traces. With an id filter the handler's
// id= form is used; otherwise both the recent and slowest lists are taken.
func fetchDump(hc *http.Client, endpoint, id string) ([]*tracing.TraceData, error) {
	url := endpoint
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url[strings.Index(url, "://")+3:], "/") {
		url += "/debug/traces"
	}
	url += fmt.Sprintf("?format=json&n=%d", fetchTraces)
	if id != "" {
		url += "&id=" + id
	}
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if id != "" && resp.StatusCode == http.StatusNotFound {
		// This process never collected the trace — normal when stitching
		// across endpoints; the other processes may still have it.
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %s", url, resp.Status)
	}
	if id != "" {
		var d struct {
			Traces []*tracing.TraceData `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return nil, err
		}
		return d.Traces, nil
	}
	var d tracing.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, err
	}
	return append(d.Recent, d.Slowest...), nil
}

// mergedTrace accumulates one trace's spans across process dumps.
type mergedTrace struct {
	id    uint64
	spans []tracing.SpanData
	seen  map[uint64]bool // span IDs already merged (recent∩slowest overlap)
}

func (m *mergedTrace) add(td *tracing.TraceData) {
	if m.seen == nil {
		m.seen = make(map[uint64]bool)
	}
	for _, s := range td.Spans {
		if m.seen[s.SpanID] {
			continue
		}
		m.seen[s.SpanID] = true
		m.spans = append(m.spans, s)
	}
}

func (m *mergedTrace) duration() time.Duration {
	var lo, hi int64
	for i, s := range m.spans {
		if i == 0 || s.StartNS < lo {
			lo = s.StartNS
		}
		if end := s.StartNS + s.DurNS; end > hi {
			hi = end
		}
	}
	return time.Duration(hi - lo)
}

// root names the span whose parent is absent from the merged set — the
// true root when every process contributed, the earliest orphan otherwise.
func (m *mergedTrace) root() string {
	ids := make(map[uint64]bool, len(m.spans))
	for _, s := range m.spans {
		ids[s.SpanID] = true
	}
	best := ""
	var bestStart int64
	for _, s := range m.spans {
		if s.ParentID != 0 && ids[s.ParentID] {
			continue
		}
		if best == "" || s.StartNS < bestStart {
			best, bestStart = s.Name, s.StartNS
		}
	}
	return best
}

func (m *mergedTrace) processes() []string {
	set := make(map[string]bool)
	for _, s := range m.spans {
		set[s.Process] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
