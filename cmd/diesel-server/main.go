// Command diesel-server runs a DIESEL server (Figure 2): it hides the
// object store and the metadata key-value cluster behind the DIESEL RPC
// protocol that libDIESEL clients and DLCMD speak.
//
// Usage:
//
//	kvnode -addr :7401 &
//	kvnode -addr :7402 &
//	diesel-server -addr :7400 -kv 127.0.0.1:7401,127.0.0.1:7402 -store /data/diesel
//
// Multiple diesel-server processes may share the same -kv cluster and
// -store directory; servers are stateless, so clients can round-robin
// across them (the paper evaluates 1, 3 and 5 servers).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"diesel/internal/etcd"
	"diesel/internal/kvstore"
	"diesel/internal/objstore"
	"diesel/internal/obs"
	"diesel/internal/server"
	"diesel/internal/slo"
	"diesel/internal/tracing"
)

// sloBudget is the error budget of the -slo objectives: the tolerated bad
// fraction (99% of reads within -slo-read-p99, 99% of a quota'd tenant's
// requests admitted).
const sloBudget = 0.01

// kvCallTimeout is the per-RPC deadline of metadata KV calls. Idempotent KV
// reads retry kvstore.Options' default of two extra attempts after a
// transport failure; writes never retry.
const kvCallTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:7400", "listen address")
	kvAddrs := flag.String("kv", "", "comma-separated kvnode addresses (required)")
	storeDir := flag.String("store", "", "chunk storage directory (empty = in-memory)")
	ssdCache := flag.Int64("ssd-cache", 0, "fast-tier cache capacity in bytes (0 = disabled)")
	cacheSpillDir := flag.String("cache-spill-dir", "", "local-disk spill tier under the -ssd-cache fast tier: evicted objects demote here and a restarted server rewarms from it (requires -ssd-cache)")
	cacheSpillBytes := flag.Int64("cache-spill-bytes", 0, "spill-tier disk budget in bytes (0 = unlimited)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz, /debug/pprof and /debug/traces on this address (empty = disabled)")
	jobEtcd := flag.String("job-etcd", "", "etcd registry address backing the job roster, shared across servers (empty = per-process roster)")
	quotaSpec := flag.String("tenant-quotas", "", `per-tenant admission quotas: "tenant=qps:bytes_per_sec;..." (0 leaves a dimension unlimited)`)
	fairLimit := flag.Int("fair-limit", 0, "bound concurrent reads; queued requests dispatch across jobs by weighted stride scheduling (0 = unbounded)")
	sloOn := flag.Bool("slo", false, "evaluate SLO burn rates (read p99, quota rejections, shared hit rate) and publish anomaly events")
	sloReadP99 := flag.Duration("slo-read-p99", 50*time.Millisecond, "read-latency SLO threshold for -slo")
	diagSpool := flag.String("diag-spool", "", "run the anomaly watchdog, spooling diagnostic bundles here and serving them on <metrics>/debug/diag (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	// A server roots no traces of its own; it records the spans of requests
	// whose callers sampled them (the trace block on the wire).
	tracing.SetProcess("diesel-server")
	tracing.SetSampleRate(0)
	tracing.EnableTracing(true)

	if *kvAddrs == "" {
		logger.Error("diesel-server: -kv is required")
		os.Exit(1)
	}
	kv, err := kvstore.DialClusterOpts(strings.Split(*kvAddrs, ","), kvstore.Options{
		ConnsPerNode: 4,
		CallTimeout:  kvCallTimeout,
	})
	if err != nil {
		logger.Error("diesel-server: dial kv cluster failed", "err", err)
		os.Exit(1)
	}

	var objects objstore.Store
	if *storeDir != "" {
		objects, err = objstore.NewDisk(*storeDir)
		if err != nil {
			logger.Error("diesel-server: open store failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
	} else {
		objects = objstore.NewMemory()
	}
	if *ssdCache > 0 {
		tiered := objstore.NewTiered(nil, objects, *ssdCache)
		if *cacheSpillDir != "" {
			rec, err := tiered.EnableSpill(*cacheSpillDir, *cacheSpillBytes)
			if err != nil {
				logger.Error("diesel-server: open cache spill tier failed", "dir", *cacheSpillDir, "err", err)
				os.Exit(1)
			}
			logger.Info("diesel-server cache spill tier on", "dir", *cacheSpillDir,
				"budget", *cacheSpillBytes, "rewarmed_objects", rec.Entries, "rewarmed_bytes", rec.Bytes)
		}
		defer tiered.Close() // leaves the spill segments for the next start
		objects = tiered
	} else if *cacheSpillDir != "" {
		logger.Warn("diesel-server: -cache-spill-dir ignored without -ssd-cache")
	}

	core := server.New(kv, objects, func() int64 { return time.Now().UnixNano() })

	// Multi-job serving plane: the job roster is always on. Point every
	// server of a deployment at one -job-etcd registry for a shared
	// roster; without it each server keeps its own (fine for one server,
	// but multi-server refcounts then only see locally-connected jobs).
	var jobStore server.JobStore = etcd.InProcess{R: etcd.NewRegistry()}
	if *jobEtcd != "" {
		ec, err := etcd.Dial(*jobEtcd)
		if err != nil {
			logger.Error("diesel-server: dial job registry failed", "addr", *jobEtcd, "err", err)
			os.Exit(1)
		}
		defer ec.Close()
		jobStore = ec
	}
	jobs := core.EnableJobs(jobStore, 0) // the registry's default lease TTL
	jobs.StartSweeper(0)
	defer jobs.StopSweeper()

	tenants, err := applyQuotas(core, *quotaSpec)
	if err != nil {
		logger.Error("diesel-server: bad -tenant-quotas", "err", err)
		os.Exit(1)
	}
	core.Fair.SetLimit(*fairLimit)

	rpc, err := server.NewRPC(core, *addr)
	if err != nil {
		logger.Error("diesel-server: listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("diesel-server serving", "addr", rpc.Addr(), "kv", *kvAddrs, "store", *storeDir)

	// SLO engine and anomaly watchdog: both off by default (zero hot-path
	// cost — the event gate stays cold). -slo publishes breach/storm
	// events; -diag-spool turns those events into diagnostic bundles.
	var eng *slo.Engine
	if *sloOn {
		reg := obs.Default()
		objectives := []slo.Objective{
			slo.ReadLatencyObjective(reg, *sloReadP99, sloBudget),
			slo.QuotaRejectionObjective(reg, sloBudget, tenants...),
		}
		eng = slo.NewEngine(slo.EngineConfig{Registry: reg, Objectives: objectives})
		eng.Start()
		defer eng.Stop()
		logger.Info("diesel-server slo engine on", "read_p99", *sloReadP99, "budget", sloBudget)
	}
	var watchdog *slo.Watchdog
	if *diagSpool != "" {
		cfg := slo.WatchdogConfig{
			Dir: *diagSpool,
			Roster: func() any {
				jobs, _ := core.JobRegistry().Jobs()
				return jobs
			},
		}
		if eng != nil {
			cfg.Status = eng.Status
		}
		watchdog, err = slo.NewWatchdog(cfg)
		if err != nil {
			logger.Error("diesel-server: watchdog failed", "err", err)
			os.Exit(1)
		}
		watchdog.Watch()
		defer watchdog.Close()
		logger.Info("diesel-server watchdog on", "spool", *diagSpool)
	}

	if *metricsAddr != "" {
		core.RegisterMetrics(obs.Default())
		mux := obs.NewMux(obs.Default())
		mux.Handle("/debug/jobs", core.JobsHandler())
		// Tier occupancy and spill-segment summary; 404 JSON without a
		// -ssd-cache tier, so probes can tell "off" from "gone".
		mux.Handle("/debug/cache", core.CacheHandler())
		// Mounted even with the watchdog off: it answers 503 JSON then,
		// so probes can tell "off" from "gone".
		mux.Handle("/debug/diag", slo.Handler(watchdog))
		lis, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			logger.Error("diesel-server: metrics listen failed", "addr", *metricsAddr, "err", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(lis)
		defer srv.Close()
		bound := lis.Addr().String()
		logger.Info("diesel-server metrics", "url", "http://"+bound+"/metrics",
			"jobs", "http://"+bound+"/debug/jobs",
			"cache", "http://"+bound+"/debug/cache",
			"traces", "http://"+bound+"/debug/traces",
			"diag", "http://"+bound+"/debug/diag")
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	logger.Info("diesel-server shutting down", "requests", rpc.Requests())
	rpc.Close()
}

// applyQuotas parses "tenant=qps:bytes_per_sec;..." and installs each
// quota on the server, returning the tenant names (the SLO engine's
// quota-rejection objective tracks exactly the quota'd tenants). Either
// dimension may be 0 to leave it unlimited.
func applyQuotas(core *server.Server, spec string) ([]string, error) {
	var tenants []string
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tenant, lim, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%q: want tenant=qps:bytes_per_sec", part)
		}
		qpsStr, bytesStr, ok := strings.Cut(lim, ":")
		if !ok {
			return nil, fmt.Errorf("%q: want tenant=qps:bytes_per_sec", part)
		}
		qps, err := strconv.ParseFloat(strings.TrimSpace(qpsStr), 64)
		if err != nil {
			return nil, fmt.Errorf("%q: bad qps: %w", part, err)
		}
		bps, err := strconv.ParseFloat(strings.TrimSpace(bytesStr), 64)
		if err != nil {
			return nil, fmt.Errorf("%q: bad bytes_per_sec: %w", part, err)
		}
		tenant = strings.TrimSpace(tenant)
		core.SetTenantQuota(tenant, server.TenantQuota{QPS: qps, BytesPerSec: bps})
		tenants = append(tenants, tenant)
	}
	return tenants, nil
}
