// Command kvnode runs one node of DIESEL's metadata key-value database
// (the role one Redis instance plays in the paper). Point diesel-server's
// -kv flag at a comma-separated list of kvnode addresses.
//
// Usage:
//
//	kvnode -addr :7401
package main

import (
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"

	"diesel/internal/kvstore"
	"diesel/internal/obs"
	"diesel/internal/slo"
	"diesel/internal/tracing"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7401", "listen address")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz, /debug/pprof and /debug/traces on this address (empty = disabled)")
	diagSpool := flag.String("diag-spool", "", "run the anomaly watchdog, spooling diagnostic bundles here and serving them on <metrics>/debug/diag (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	// A KV node never roots traces of its own; it records the spans of
	// requests whose callers sampled them (the trace block on the wire).
	tracing.SetProcess("kvnode")
	tracing.SetSampleRate(0)
	tracing.EnableTracing(true)

	s, err := kvstore.NewServer(*addr)
	if err != nil {
		logger.Error("kvnode: listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("kvnode serving", "addr", s.Addr())

	// The watchdog has no SLO engine on a KV node (the burn-rate
	// objectives live server- and client-side); it still auto-captures on
	// anomaly events and answers `dlcmd diag -trigger`, so a cross-process
	// collection includes this node's traces, metrics and profiles.
	var watchdog *slo.Watchdog
	if *diagSpool != "" {
		watchdog, err = slo.NewWatchdog(slo.WatchdogConfig{Dir: *diagSpool})
		if err != nil {
			logger.Error("kvnode: watchdog failed", "err", err)
			os.Exit(1)
		}
		watchdog.Watch()
		defer watchdog.Close()
		logger.Info("kvnode watchdog on", "spool", *diagSpool)
	}

	if *metricsAddr != "" {
		mux := obs.NewMux(obs.Default())
		mux.Handle("/debug/diag", slo.Handler(watchdog))
		lis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			logger.Error("kvnode: metrics listen failed", "addr", *metricsAddr, "err", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(lis)
		defer srv.Close()
		bound := lis.Addr().String()
		logger.Info("kvnode metrics", "url", "http://"+bound+"/metrics",
			"traces", "http://"+bound+"/debug/traces",
			"diag", "http://"+bound+"/debug/diag")
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	logger.Info("kvnode shutting down", "requests", s.Requests())
	s.Close()
}
