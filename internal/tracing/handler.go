package tracing

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Dump is the JSON document served by /debug/traces: everything a scraper
// needs to show this process's view of recent and slow traces. `dlcmd
// trace` fetches one Dump per process and stitches span trees by TraceID.
type Dump struct {
	Process   string                    `json:"process"`
	Enabled   bool                      `json:"enabled"`
	Total     uint64                    `json:"total"`
	SlowNS    int64                     `json:"slowThresholdNS"`
	Recent    []*TraceData              `json:"recent"`
	Slowest   []*TraceData              `json:"slowest"`
	Exemplars map[string][]ExemplarData `json:"exemplars,omitempty"`
}

// Snapshot assembles the current Dump (up to n traces per list).
func Snapshot(n int) *Dump {
	return &Dump{
		Process:   Process(),
		Enabled:   Enabled(),
		Total:     CollectedTotal(),
		SlowNS:    slowNS.Load(),
		Recent:    Recent(n),
		Slowest:   Slowest(n),
		Exemplars: exemplars(),
	}
}

// handlerError writes a JSON {"error": ...} body. This package cannot
// use a shared helper from obs (obs imports tracing), so it carries its
// own.
func handlerError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// Handler serves the trace stores. Query parameters:
//
//	format=json   machine-readable Dump (what dlcmd trace consumes)
//	id=<hex>      only traces with this trace ID (both formats)
//	n=<count>     cap per list (default 16)
//
// The default (no format) is a human-readable listing with ASCII span
// trees, so `curl host:port/debug/traces` is useful on its own. Bad
// parameters are 400 and an id this process has not collected is 404,
// both as JSON — a scraper never has to guess whether an empty body
// means "no such trace" or a typo'd query.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		for key := range q {
			switch key {
			case "format", "id", "n":
			default:
				handlerError(w, http.StatusBadRequest, "unknown query parameter "+strconv.Quote(key))
				return
			}
		}
		if f := q.Get("format"); f != "" && f != "json" {
			handlerError(w, http.StatusBadRequest, "unknown format "+strconv.Quote(f)+" (want json)")
			return
		}
		n := 16
		if arg := q.Get("n"); arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v <= 0 {
				handlerError(w, http.StatusBadRequest, "bad n "+strconv.Quote(arg)+": want a positive count")
				return
			}
			n = v
		}
		var only []*TraceData
		idArg := q.Get("id")
		if q.Has("id") && idArg == "" {
			handlerError(w, http.StatusBadRequest, "id needs a trace id")
			return
		}
		if idArg != "" {
			id, err := parseID(idArg)
			if err != nil {
				handlerError(w, http.StatusBadRequest, "bad id "+strconv.Quote(idArg)+": want 16 hex digits")
				return
			}
			only = ByID(id)
			if len(only) == 0 {
				handlerError(w, http.StatusNotFound, "no collected trace "+strconv.Quote(idArg))
				return
			}
		}

		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if idArg != "" {
				enc.Encode(struct {
					Process string       `json:"process"`
					Traces  []*TraceData `json:"traces"`
				}{Process(), only})
				return
			}
			enc.Encode(Snapshot(n))
			return
		}

		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var b strings.Builder
		if idArg != "" {
			fmt.Fprintf(&b, "trace %s in process %q (%d local view(s))\n\n", idArg, Process(), len(only))
			for _, td := range only {
				WriteTree(&b, td.Spans)
				b.WriteByte('\n')
			}
			w.Write([]byte(b.String()))
			return
		}
		d := Snapshot(n)
		fmt.Fprintf(&b, "process %q: tracing enabled=%v, %d traces collected, slow threshold %v\n",
			d.Process, d.Enabled, d.Total, time.Duration(d.SlowNS))
		writeList := func(title string, list []*TraceData) {
			fmt.Fprintf(&b, "\n== %s (%d) ==\n", title, len(list))
			for _, td := range list {
				status := ""
				if td.Err {
					status = "  ERR"
				}
				fmt.Fprintf(&b, "\n%s  %s  %v  (%d spans)%s\n",
					FormatID(td.TraceID), td.Root, td.Duration().Round(time.Microsecond), len(td.Spans), status)
				WriteTree(&b, td.Spans)
			}
		}
		writeList("slowest", d.Slowest)
		writeList("recent", d.Recent)
		if len(d.Exemplars) > 0 {
			fmt.Fprintf(&b, "\n== exemplars (slow observations → trace IDs) ==\n")
			names := make([]string, 0, len(d.Exemplars))
			for name := range d.Exemplars {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				for _, e := range d.Exemplars[name] {
					fmt.Fprintf(&b, "%-40s %10v  trace %s\n",
						name, time.Duration(e.DurNS).Round(time.Microsecond), FormatID(e.TraceID))
				}
			}
		}
		w.Write([]byte(b.String()))
	})
}

// FormatID renders a trace or span ID the way every tool in the repo
// prints them: 16 hex digits.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// parseID accepts the FormatID form (hex, with or without 0x) and plain
// decimal.
func parseID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if id, err := strconv.ParseUint(s, 16, 64); err == nil {
		return id, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// WriteTree renders spans (possibly merged from several processes) as an
// indented tree ordered by start time. Spans whose parent is absent from
// the slice (e.g. the remote caller's span when rendering one process's
// view) are shown as roots.
func WriteTree(b *strings.Builder, spans []SpanData) {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.SpanID] = i
	}
	children := make(map[uint64][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if _, ok := byID[s.ParentID]; ok && s.ParentID != 0 && s.ParentID != s.SpanID {
			children[s.ParentID] = append(children[s.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].StartNS < spans[idx[b]].StartNS })
	}
	byStart(roots)
	for _, idx := range children {
		byStart(idx)
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := spans[i]
		dur := "unfinished"
		if s.DurNS > 0 {
			dur = time.Duration(s.DurNS).Round(time.Microsecond).String()
		}
		status := ""
		if s.Err {
			status = " ERR"
		}
		var attrs string
		if len(s.Attrs) > 0 {
			parts := make([]string, len(s.Attrs))
			for j, a := range s.Attrs {
				parts[j] = a.Key + "=" + a.Value
			}
			attrs = "  {" + strings.Join(parts, " ") + "}"
		}
		fmt.Fprintf(b, "  %s%-*s  %10s  [%s]%s%s\n",
			strings.Repeat("· ", depth), 36-2*depth, s.Name, dur, s.Process, status, attrs)
		for _, c := range children[s.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
