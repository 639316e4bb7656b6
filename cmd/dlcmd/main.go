// Command dlcmd manages datasets in DIESEL — the s3cmd-style tool of §5.
//
// Usage:
//
//	dlcmd -servers 127.0.0.1:7400 -dataset imagenet <command> [args]
//
// Commands:
//
//	put <local-file> <remote-path>   upload one file
//	put-dir <local-dir> [prefix]     upload a directory tree
//	get <remote-path> [local-file]   download one file (stdout by default)
//	ls [dir]                         list a directory
//	stat <remote-path>               show one file's metadata
//	rm <remote-path>                 delete one file
//	info                             dataset summary record
//	save-meta <file>                 download the metadata snapshot
//	purge                            merge chunks with deletion holes
//	recover [from-unix-seconds]      rebuild metadata from chunks (§4.1.2)
//	rm-dataset                       delete the entire dataset
//	gen <files> <mean-size>          generate a synthetic dataset
//	read-epoch [-hedge] [-reorder k] [-deadline d] [seed [group [window]]]
//	                                 stream one chunk-wise shuffled epoch
//	                                 through the pipelined reader and report
//	                                 throughput (Ctrl-C cancels cleanly);
//	                                 -hedge reissues straggling group fetches
//	                                 after an adaptive p99 delay, -reorder k
//	                                 serves the first-finished of the next k
//	                                 groups, -deadline bounds each fetch
//	                                 attempt
//	jobs                             list the live training-job roster of
//	                                 the -servers (no -dataset needed)
//	admin set-weight <job> <w>       retune a live server: fair-share
//	admin set-quota <t> <qps> <bps>  dispatch weight per job, admission
//	                                 quota per tenant (applied to every
//	                                 server in -servers; no -dataset needed)
//	stats [-watch 2s] <host:port | url> scrape a -metrics endpoint (watch: print deltas/rates)
//	cache <host:port | url>...       scrape /debug/cache endpoints: tier
//	                                 occupancy, spill-segment summary and
//	                                 per-dataset resident bytes

//	trace [-id hex] <endpoint>...    scrape /debug/traces from one or more
//	                                 endpoints and stitch cross-process span
//	                                 trees by trace ID
//	diag [-trigger r] [-verify] <endpoint>... | diag -spool <dir>
//	                                 collect diagnostic bundles from
//	                                 /debug/diag endpoints (or a local
//	                                 spool) into one tarball, correlating
//	                                 captured traces across processes
//
// With -trace <rate> the client side records spans too: read-epoch then
// prints its slowest local traces (with trace IDs), which `dlcmd trace`
// can look up on the server endpoints for the remote half of the tree.
package main

import (
	"context"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"diesel/internal/client"
	"diesel/internal/epoch"
	"diesel/internal/trace"
	"diesel/internal/tracing"
)

func main() {
	servers := flag.String("servers", "127.0.0.1:7400", "comma-separated DIESEL server addresses")
	dataset := flag.String("dataset", "", "dataset name (required)")
	traceRate := flag.Float64("trace", 0, "trace sample rate in [0,1] (0 = tracing off)")
	flag.Parse()
	if *traceRate > 0 {
		tracing.SetProcess("dlcmd")
		tracing.SetSampleRate(*traceRate)
		tracing.EnableTracing(true)
	}
	// stats and trace talk HTTP to a -metrics endpoint, not RPC to a
	// server, so they need neither -dataset nor a client connection.
	if flag.NArg() > 0 && flag.Arg(0) == "stats" {
		if err := runStats(flag.Args()[1:]); err != nil {
			log.Fatalf("dlcmd stats: %v", err)
		}
		return
	}
	if flag.NArg() > 0 && flag.Arg(0) == "trace" {
		if err := runTrace(flag.Args()[1:]); err != nil {
			log.Fatalf("dlcmd trace: %v", err)
		}
		return
	}
	// diag scrapes /debug/diag endpoints (or a local spool), so like
	// stats/trace it needs neither -dataset nor a client connection.
	// cache scrapes /debug/cache endpoints, so it also needs neither
	// -dataset nor a client connection.
	if flag.NArg() > 0 && flag.Arg(0) == "cache" {
		if err := runCache(flag.Args()[1:]); err != nil {
			log.Fatalf("dlcmd cache: %v", err)
		}
		return
	}
	if flag.NArg() > 0 && flag.Arg(0) == "diag" {
		if err := runDiag(flag.Args()[1:]); err != nil {
			log.Fatalf("dlcmd diag: %v", err)
		}
		return
	}
	// jobs and admin are roster/server-wide, not dataset-scoped, so they
	// skip the client connection (and the -dataset requirement) and talk
	// to the servers directly.
	if flag.NArg() > 0 && flag.Arg(0) == "jobs" {
		if err := runJobs(strings.Split(*servers, ",")); err != nil {
			log.Fatalf("dlcmd jobs: %v", err)
		}
		return
	}
	if flag.NArg() > 0 && flag.Arg(0) == "admin" {
		if err := runAdmin(strings.Split(*servers, ","), flag.Args()[1:]); err != nil {
			log.Fatalf("dlcmd admin: %v", err)
		}
		return
	}
	if *dataset == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	// No per-RPC deadline (a hung server blocks until Ctrl-C) and the
	// library's default of two retries for idempotent reads.
	c, err := client.Connect(client.Options{
		User: "dlcmd", Key: "",
		Servers: strings.Split(*servers, ","),
		Dataset: *dataset,
	})
	if err != nil {
		log.Fatalf("dlcmd: %v", err)
	}
	defer c.Close()

	args := flag.Args()
	cmd, args := args[0], args[1:]
	if err := run(c, cmd, args); err != nil {
		log.Fatalf("dlcmd %s: %v", cmd, err)
	}
}

// runJobs prints the job roster of the first server that answers. All
// servers of one deployment share the roster through the metadata
// cluster, so any single answer is the whole picture.
func runJobs(servers []string) error {
	var lastErr error
	for _, addr := range servers {
		jobs, err := client.ListJobs(strings.TrimSpace(addr))
		if err != nil {
			lastErr = err
			continue
		}
		if len(jobs) == 0 {
			fmt.Println("no live jobs")
			return nil
		}
		now := time.Now()
		fmt.Printf("%-16s %-16s %-12s %5s %10s %10s\n",
			"JOB", "DATASET", "TENANT", "RANK", "AGE", "LAST-HB")
		for _, j := range jobs {
			fmt.Printf("%-16s %-16s %-12s %5d %10s %10s\n",
				j.ID, j.Dataset, j.Tenant, j.Rank,
				now.Sub(time.Unix(0, j.RegisteredNS)).Truncate(time.Second),
				now.Sub(time.Unix(0, j.HeartbeatNS)).Truncate(time.Second))
		}
		return nil
	}
	return lastErr
}

func run(c *client.Client, cmd string, args []string) error {
	ds := c.DefaultDataset()
	switch cmd {
	case "put":
		if len(args) != 2 {
			return fmt.Errorf("usage: put <local> <remote>")
		}
		b, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		if err := ds.Put(args[1], b); err != nil {
			return err
		}
		return ds.Flush()

	case "put-dir":
		if len(args) < 1 {
			return fmt.Errorf("usage: put-dir <dir> [prefix]")
		}
		prefix := ""
		if len(args) > 1 {
			prefix = strings.TrimSuffix(args[1], "/") + "/"
		}
		n := 0
		err := filepath.WalkDir(args[0], func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(args[0], p)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			n++
			return ds.Put(prefix+filepath.ToSlash(rel), b)
		})
		if err != nil {
			return err
		}
		if err := ds.Flush(); err != nil {
			return err
		}
		fmt.Printf("uploaded %d files\n", n)
		return nil

	case "get":
		if len(args) < 1 {
			return fmt.Errorf("usage: get <remote> [local]")
		}
		b, err := ds.Get(context.Background(), args[0])
		if err != nil {
			return err
		}
		if len(args) > 1 {
			return os.WriteFile(args[1], b, 0o644)
		}
		_, err = os.Stdout.Write(b)
		return err

	case "ls":
		dir := ""
		if len(args) > 0 {
			dir = args[0]
		}
		ents, err := ds.Ls(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.IsDir {
				fmt.Printf("%12s  %s/\n", "-", e.Name)
			} else {
				fmt.Printf("%12d  %s\n", e.Size, e.Name)
			}
		}
		return nil

	case "stat":
		if len(args) != 1 {
			return fmt.Errorf("usage: stat <remote>")
		}
		si, err := ds.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("path:    %s\nsize:    %d\nchunk:   %s\n", args[0], si.Size, si.ChunkID)
		return nil

	case "rm":
		if len(args) != 1 {
			return fmt.Errorf("usage: rm <remote>")
		}
		return ds.Delete(args[0])

	case "info":
		snap, err := ds.DownloadSnapshot()
		if err != nil {
			return err
		}
		fmt.Printf("dataset: %s\nfiles:   %d\nchunks:  %d\nbytes:   %d\nupdated: %s\n",
			ds.Name(), snap.NumFiles(), len(snap.Chunks), snap.TotalBytes(),
			time.Unix(0, snap.UpdatedNS).Format(time.RFC3339))
		return nil

	case "save-meta":
		if len(args) != 1 {
			return fmt.Errorf("usage: save-meta <file>")
		}
		if err := ds.SaveMeta(args[0]); err != nil {
			return err
		}
		fmt.Printf("snapshot saved to %s\n", args[0])
		return nil

	case "purge":
		return ds.Purge()

	case "recover":
		fromSec := uint32(0)
		if len(args) > 0 {
			v, err := strconv.ParseUint(args[0], 10, 32)
			if err != nil {
				return fmt.Errorf("recover: bad timestamp %q", args[0])
			}
			fromSec = uint32(v)
		}
		scanned, skipped, pairs, err := ds.Recover(fromSec)
		if err != nil {
			return err
		}
		fmt.Printf("recovered: %d chunks scanned, %d skipped, %d metadata pairs rewritten\n",
			scanned, skipped, pairs)
		return nil

	case "rm-dataset":
		return ds.DeleteDataset()

	case "read-epoch":
		fs := flag.NewFlagSet("read-epoch", flag.ContinueOnError)
		hedge := fs.Bool("hedge", false, "hedge straggling group fetches (reissue after the adaptive p99 delay, first success wins)")
		reorder := fs.Int("reorder", 0, "serve whichever of the next k prefetched groups finished first (0 = exact plan order)")
		deadline := fs.Duration("deadline", 0, "per-group-fetch attempt timeout (0 = none)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		rest := fs.Args()
		seed, group, window := int64(1), 8, 2
		if len(rest) > 0 {
			v, err := strconv.ParseInt(rest[0], 10, 64)
			if err != nil {
				return fmt.Errorf("read-epoch: bad seed %q", rest[0])
			}
			seed = v
		}
		if len(rest) > 1 {
			v, err := strconv.Atoi(rest[1])
			if err != nil {
				return fmt.Errorf("read-epoch: bad group size %q", rest[1])
			}
			group = v
		}
		if len(rest) > 2 {
			v, err := strconv.Atoi(rest[2])
			if err != nil {
				return fmt.Errorf("read-epoch: bad window %q", rest[2])
			}
			window = v
		}
		return readEpoch(ds, seed, group, window, *hedge, *reorder, *deadline)

	case "gen":
		if len(args) != 2 {
			return fmt.Errorf("usage: gen <files> <mean-size>")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		sz, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		spec := trace.Spec{
			Name: ds.Name(), NumFiles: n, Classes: max(1, n/50),
			MeanFileSize: sz, SizeSpread: 0.4, Seed: 11,
		}
		start := time.Now()
		if err := trace.Write(spec, func(int) (trace.Putter, error) { return ds, nil }, 1); err != nil {
			return err
		}
		fmt.Printf("generated %d files (%d bytes) in %v\n", n, spec.TotalBytes(), time.Since(start))
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// readEpoch streams one shuffled epoch through the pipelined reader,
// fetching whole chunks from the servers, and reports throughput.
// Interrupting cancels the context, which unwinds every in-flight RPC.
// hedge/reorder/deadline switch on the reader's tail-latency controls;
// hedged reissues go through the same servers with a fresh context.
func readEpoch(ds *client.Dataset, seed int64, group, window int, hedge bool, reorder int, deadline time.Duration) error {
	snap, err := ds.DownloadSnapshot()
	if err != nil {
		return err
	}
	plan, err := ds.ShufflePlan(seed, group)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := []epoch.Option{
		epoch.WithWindow(window), epoch.WithContext(ctx),
	}
	if hedge {
		opts = append(opts, epoch.WithHedge(nil))
	}
	if reorder > 0 {
		opts = append(opts, epoch.WithReorderWindow(reorder))
	}
	if deadline > 0 {
		opts = append(opts, epoch.WithGroupDeadline(deadline))
	}
	r := epoch.NewReader(plan, snap, epoch.NewClientSource(ds, snap, 0), opts...)
	defer r.Close()
	start := time.Now()
	files, bytes := 0, uint64(0)
	for {
		s, err := r.Next()
		if err != nil {
			break
		}
		files++
		bytes += uint64(len(s.Data))
	}
	el := time.Since(start)
	if err := r.Err(); err != nil {
		return fmt.Errorf("after %d files: %w", files, err)
	}
	fmt.Printf("epoch: %d files, %d bytes in %v (%.0f files/s, %.1f MB/s, %d groups, window %d)\n",
		files, bytes, el.Round(time.Millisecond),
		float64(files)/el.Seconds(), float64(bytes)/el.Seconds()/1e6,
		len(plan.Groups), window)
	printLocalTraces()
	return nil
}

// printLocalTraces shows the client-side half of the slowest traces this
// run recorded (when -trace is on). The printed IDs are what to pass to
// `dlcmd trace -id <id> <server-metrics-endpoint> <kvnode-endpoints...>`
// to see the server-side spans of the same traces.
func printLocalTraces() {
	if !tracing.Enabled() {
		return
	}
	slowest := tracing.Slowest(3)
	if len(slowest) == 0 {
		// Nothing crossed the slow threshold; show the last few anyway.
		slowest = tracing.Recent(3)
	}
	if len(slowest) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nslowest client-side traces (%d collected; dlcmd trace -id <id> <endpoints> for the server half):\n", tracing.CollectedTotal())
	for _, td := range slowest {
		fmt.Fprintf(&b, "\n%s  %s  %v  (%d spans)\n",
			tracing.FormatID(td.TraceID), td.Root, td.Duration().Round(time.Microsecond), len(td.Spans))
		tracing.WriteTree(&b, td.Spans)
	}
	fmt.Print(b.String())
}
