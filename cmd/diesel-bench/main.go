// Command diesel-bench regenerates every table and figure of the paper's
// evaluation (§6) and prints the same rows/series the paper plots.
//
// Usage:
//
//	diesel-bench -exp fig9   # one experiment; -h lists their names
//	diesel-bench -exp all    # every experiment, in name order (the default)
//
// Everything here is deterministic: the performance experiments run on
// the cluster simulator calibrated in internal/cluster (see DESIGN.md §2
// for the substitution rationale), and fig13 and ablation-group train a
// real model with real SGD from a fixed seed. Numbers measured on the
// real stack come from `go test -bench`, cmd/diesel-load and bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"diesel/internal/cluster"
	"diesel/internal/train"
)

func main() {
	runs := map[string]func(cluster.Params){
		"table2": table2, "fig6": fig6, "fig9": fig9,
		"fig10a": fig10a, "fig10b": fig10b, "fig10c": fig10c,
		"fig11a": fig11a, "fig11b": fig11b, "fig12": fig12,
		"fig13": fig13, "fig14": fig14, "fig15": fig15,
		"ablation-group": ablationGroup, "ablation-topology": ablationTopology,
	}
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", ")+", or all")
	flag.Parse()

	p := cluster.Default()
	if *exp == "all" {
		for _, n := range names {
			runs[n](p)
			fmt.Println()
		}
		return
	}
	fn, ok := runs[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fn(p)
}

func table2(p cluster.Params) {
	fmt.Println("== Table 2: read bandwidth and IOPS vs file size (SSD storage cluster) ==")
	fmt.Printf("%-14s %-15s %-14s %-12s\n", "File Size(KB)", "Bandwidth(MB)", "Files/Second", "4K-IOPS")
	for _, r := range cluster.Table2(p) {
		fmt.Printf("%-14d %-15.2f %-14.2f %-12.2f\n", r.FileSizeKB, r.BandwidthMB, r.FilesPerSec, r.IOPS4K)
	}
}

func fig6(p cluster.Params) {
	fmt.Println("== Figure 6: Memcached reading speed under cache-node failures ==")
	fmt.Printf("%-10s %-14s %-10s\n", "iteration", "speed(MB/s)", "hit-ratio")
	for _, r := range cluster.Fig6(p) {
		if r.Iteration%5 == 0 || r.Iteration == 30 || r.Iteration == 70 {
			fmt.Printf("%-10d %-14.1f %-10.3f\n", r.Iteration, r.SpeedMBps, r.HitRatio)
		}
	}
}

func fig9(p cluster.Params) {
	fmt.Println("== Figure 9: write throughput, 64 processes on 4 nodes ==")
	fmt.Printf("%-12s %-12s %-14s\n", "system", "size(KB)", "files/second")
	for _, r := range cluster.Fig9(p) {
		fmt.Printf("%-12s %-12d %-14.0f\n", r.System, r.FileSizeKB, r.FilesPerSec)
	}
	fmt.Printf("ImageNet-1K full write with 64 threads: %.1f s (paper: ~3 s)\n",
		cluster.ImageNetWriteSeconds(p))
}

func fig10a(p cluster.Params) {
	fmt.Println("== Figure 10a: metadata QPS vs client nodes (1/3/5 DIESEL servers) ==")
	fmt.Printf("%-8s %-8s %-12s\n", "servers", "nodes", "QPS")
	for _, r := range cluster.Fig10a(p) {
		fmt.Printf("%-8d %-8d %-12.0f\n", r.Servers, r.ClientNodes, r.QPS)
	}
}

func fig10b(p cluster.Params) {
	fmt.Println("== Figure 10b: metadata QPS with snapshots (linear scaling) ==")
	fmt.Printf("%-8s %-14s\n", "nodes", "QPS")
	for _, r := range cluster.Fig10b(p) {
		fmt.Printf("%-8d %-14.3e\n", r.ClientNodes, r.QPS)
	}
}

func fig10c(p cluster.Params) {
	fmt.Println("== Figure 10c: ls -R / ls -lR elapsed time on ImageNet-1K ==")
	fmt.Printf("%-14s %-12s %-12s\n", "system", "ls -R (s)", "ls -lR (s)")
	for _, r := range cluster.Fig10c(p) {
		fmt.Printf("%-14s %-12.1f %-12.1f\n", r.System, r.LsRSeconds, r.LsLRSeconds)
	}
}

func fig11a(p cluster.Params) {
	fmt.Println("== Figure 11a: 4KB random-read QPS vs client nodes ==")
	fmt.Printf("%-14s %-8s %-12s\n", "system", "nodes", "QPS")
	for _, r := range cluster.Fig11a(p) {
		if r.ClientNodes == 1 || r.ClientNodes == 5 || r.ClientNodes == 10 {
			fmt.Printf("%-14s %-8d %-12.0f\n", r.System, r.ClientNodes, r.QPS)
		}
	}
}

func fig11b(p cluster.Params) {
	fmt.Println("== Figure 11b: cache loading / recovery time (ImageNet-1K) ==")
	fmt.Printf("%-11s %-12s %-14s %-10s\n", "system", "time(s)", "batch(s)", "hit-ratio")
	for _, r := range cluster.Fig11b(p) {
		if int(r.TimeSeconds)%10 == 0 || r.HitRatio >= 1 {
			fmt.Printf("%-11s %-12.1f %-14.3f %-10.3f\n", r.System, r.TimeSeconds, r.BatchSeconds, r.HitRatio)
		}
	}
}

func fig12(p cluster.Params) {
	fmt.Println("== Figure 12: read bandwidth with chunk-wise shuffle (10 nodes, 160 threads) ==")
	fmt.Printf("%-14s %-10s %-16s %-14s %-10s\n", "system", "size(KB)", "bandwidth(MB/s)", "files/second", "vs Lustre")
	for _, r := range cluster.Fig12(p) {
		fmt.Printf("%-14s %-10d %-16.1f %-14.0f %.1fx\n",
			r.System, r.FileSizeKB, r.BandwidthMB, r.FilesPerSec, r.SpeedupOverL)
	}
}

func fig13(cluster.Params) {
	fmt.Println("== Figure 13: accuracy per epoch, chunk-wise shuffle vs dataset shuffle ==")
	cfg := train.DefaultFig13Config()
	curves := train.Fig13(cfg)
	names := make([]string, 0, len(curves))
	for n := range curves {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-18s", "epoch")
	for _, n := range names {
		fmt.Printf(" %-22s", n)
	}
	fmt.Println()
	for ep := range cfg.Epochs {
		fmt.Printf("%-18d", ep+1)
		for _, n := range names {
			pt := curves[n][ep]
			fmt.Printf(" top1=%.3f top5=%.3f ", pt.Top1, pt.Top5)
		}
		fmt.Println()
	}
	for _, n := range names {
		fmt.Printf("final top-1 (%s): %.3f\n", n, train.FinalAccuracy(curves[n], 3))
	}
}

func ablationTopology(p cluster.Params) {
	fmt.Println("== Ablation: cache interconnect topology (Figure 7's p×(n−1) design) ==")
	fmt.Printf("%-14s %-8s %-14s %-14s %-16s\n", "design", "nodes", "clients/node", "connections", "mean read (µs)")
	for _, r := range cluster.AblationTopology(p) {
		fmt.Printf("%-14s %-8d %-14d %-14d %-16.1f\n", r.Design, r.Nodes, r.ClientsPerNod, r.Connections, r.MeanReadUS)
	}
}

func ablationGroup(cluster.Params) {
	fmt.Println("== Ablation: chunk-wise shuffle group size vs accuracy and cache footprint ==")
	cfg := train.DefaultFig13Config()
	rows := train.GroupSizeSweep(cfg, []int{1, 2, 5, 15, 30, 60})
	fmt.Printf("%-12s %-12s %-18s %-18s\n", "group", "final top-1", "batch diversity", "working set (chunks)")
	for _, r := range rows {
		g := fmt.Sprintf("%d", r.GroupSize)
		if r.GroupSize == 0 {
			g = "full-shuffle"
		}
		fmt.Printf("%-12s %-12.3f %-18.3f %-18d\n", g, r.FinalTop1, r.BatchDiversity, r.WorkingSetChunks)
	}
	fmt.Printf("random-permutation diversity ceiling: %.3f\n", train.RandomOrderDiversity(cfg))
}

func fig14(cluster.Params) {
	fmt.Println("== Figure 14: data access time per iteration (first 10 epochs) ==")
	lustre, diesel := train.PaperIO()
	const iters = 50 // reduced for printing; paper uses 5005
	lp := train.Fig14(lustre, 10, iters)
	dp := train.Fig14(diesel, 10, iters)
	fmt.Printf("%-8s %-8s %-14s %-16s\n", "epoch", "iter", "Lustre(s)", "DIESEL-FUSE(s)")
	for i := 0; i < len(lp); i += 10 {
		fmt.Printf("%-8d %-8d %-14.3f %-16.3f\n", lp[i].Epoch, lp[i].Iter, lp[i].DataSeconds, dp[i].DataSeconds)
	}
	fmt.Printf("ResNet-50 per-run saving: %.0f s (~%.1f h; paper: ~10 h)\n",
		train.ResNet50SavingsSeconds(), train.ResNet50SavingsSeconds()/3600)
}

func fig15(cluster.Params) {
	fmt.Println("== Figure 15: total training time, DIESEL-FUSE vs Lustre ==")
	fmt.Printf("%-12s %-12s %-12s %-14s %-14s %-12s\n",
		"model", "Lustre(h)", "DIESEL(h)", "IO saved(%)", "total saved(%)", "normalized")
	for _, r := range train.Fig15() {
		fmt.Printf("%-12s %-12.1f %-12.1f %-14.0f %-14.1f %-12.2f\n",
			r.Model, r.LustreHours, r.DieselHours, r.IOReductionPct, r.TotalReduction, r.NormalizedDiesel)
	}
}
