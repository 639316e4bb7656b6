package slo

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"diesel/internal/tracing"
)

// httpJSON writes v as an indented JSON response.
func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError writes a {"error": ...} JSON body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	httpJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// diagList is the JSON document served by GET /debug/diag.
type diagList struct {
	Process string            `json:"process"`
	Engine  []ObjectiveStatus `json:"slo,omitempty"`
	Bundles []BundleInfo      `json:"bundles"`
}

// Handler serves the diagnostic spool:
//
//	GET  /debug/diag              list bundles (+ current SLO status)
//	GET  /debug/diag?fetch=<id>   stream one bundle (application/gzip)
//	POST /debug/diag?trigger=<r>  capture a bundle now, reason r
//
// Unknown IDs are 404, malformed parameters 400, both as JSON — the
// contract the satellite fix brings /debug/jobs and /debug/traces up to.
// Handler works on a nil watchdog (it reports 503 for every request), so
// binaries can mount it unconditionally and gate only the construction.
func Handler(w *Watchdog) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w == nil {
			httpError(rw, http.StatusServiceUnavailable, "diagnostics disabled: start with a -diag-spool directory")
			return
		}
		q := r.URL.Query()
		for key := range q {
			switch key {
			case "fetch", "trigger":
			default:
				httpError(rw, http.StatusBadRequest, "unknown query parameter "+strconv.Quote(key))
				return
			}
		}
		if id := q.Get("fetch"); id != "" {
			if q.Has("trigger") {
				httpError(rw, http.StatusBadRequest, "fetch and trigger are mutually exclusive")
				return
			}
			f, size, err := w.Open(id)
			if err != nil {
				httpError(rw, http.StatusNotFound, "no such bundle "+strconv.Quote(id))
				return
			}
			defer f.Close()
			rw.Header().Set("Content-Type", "application/gzip")
			rw.Header().Set("Content-Length", strconv.FormatInt(size, 10))
			rw.Header().Set("Content-Disposition", "attachment; filename="+strconv.Quote(id+".tar.gz"))
			io.Copy(rw, f)
			return
		}
		if q.Has("fetch") {
			httpError(rw, http.StatusBadRequest, "fetch needs a bundle id")
			return
		}
		if reason := q.Get("trigger"); reason != "" {
			// A capture runs a CPU profile: a link prefetcher or a
			// browser's GET must not start one.
			if r.Method != http.MethodPost {
				rw.Header().Set("Allow", http.MethodPost)
				httpError(rw, http.StatusMethodNotAllowed, "trigger wants POST")
				return
			}
			id, err := w.trigger(reason)
			if err != nil {
				httpError(rw, http.StatusInternalServerError, "capture failed: "+err.Error())
				return
			}
			httpJSON(rw, http.StatusOK, struct {
				ID string `json:"id"`
			}{id})
			return
		}
		if q.Has("trigger") {
			httpError(rw, http.StatusBadRequest, "trigger needs a reason")
			return
		}
		out := diagList{Process: tracing.Process(), Bundles: w.List()}
		if out.Bundles == nil {
			out.Bundles = []BundleInfo{}
		}
		if w.cfg.Status != nil {
			out.Engine = w.cfg.Status()
		}
		httpJSON(rw, http.StatusOK, out)
	})
}
