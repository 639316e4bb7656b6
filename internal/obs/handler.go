package obs

import (
	"expvar"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"diesel/internal/tracing"
)

// metricsHandler returns an http.Handler serving only the registry's
// /metrics rendering (whatever path it is mounted on).
func metricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteText(w); err != nil {
			// Headers are gone; all we can do is log.
			log.Printf("obs: render /metrics: %v", err)
		}
	})
}

// NewMux builds the observability endpoint served by the cmd binaries'
// -metrics flag:
//
//	/metrics       Prometheus text exposition of reg
//	/healthz       liveness: 200 "ok"
//	/debug/pprof/  the standard runtime profiles (CPU, heap, goroutine…)
//	/debug/vars    expvar JSON (cmdline, memstats)
//	/debug/traces  recent + slowest request traces (internal/tracing)
//
// pprof is wired explicitly rather than through net/http/pprof's
// DefaultServeMux side effects, so importing this package never exposes
// profiles on a mux the caller didn't ask for.
func NewMux(reg *Registry) *http.ServeMux {
	RegisterRuntime(reg) // every -metrics endpoint shows self-telemetry
	mux := http.NewServeMux()
	mux.Handle("/metrics", metricsHandler(reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/traces", tracing.Handler())
	return mux
}

// Serve binds addr (":0" picks a free port) and serves NewMux(reg) in a
// background goroutine. It returns the bound address and a shutdown
// function.
func Serve(addr string, reg *Registry) (string, func() error, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(reg)}
	go srv.Serve(lis)
	return lis.Addr().String(), srv.Close, nil
}
