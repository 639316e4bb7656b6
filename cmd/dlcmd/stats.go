package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"diesel/internal/obs"
)

// runStats scrapes a /metrics endpoint (diesel-server or kvnode started
// with -metrics) and pretty-prints it: counters and gauges as plain
// values, histograms as count/mean/p50/p95/p99. It needs no -dataset and
// no DIESEL connection — just HTTP reachability to the metrics address.
// With -watch it re-scrapes on an interval and prints what moved:
// counter deltas as rates, and histogram quantiles computed over just
// the interval's observations (cumulative buckets diffed between
// scrapes), which is what you want while watching a load test or a
// fault window in real time.
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Duration("watch", 0, "re-scrape every interval and print deltas and rates (0 = one shot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stats [-watch interval] <host:port | url>")
	}
	url := endpointURL(fs.Arg(0), "/metrics")
	if *watch > 0 {
		return watchStats(url, *watch)
	}
	sc, err := scrapeStats(url)
	if err != nil {
		return err
	}
	// Alphabetical within each section: stable diffs between scrapes.
	sort.SliceStable(sc.Samples, func(i, j int) bool {
		a, b := sc.Samples[i], sc.Samples[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return fmtLabels(a.Labels) < fmtLabels(b.Labels)
	})
	sort.SliceStable(sc.Histograms, func(i, j int) bool {
		a, b := sc.Histograms[i], sc.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return fmtLabels(a.Labels) < fmtLabels(b.Labels)
	})

	if len(sc.Samples) > 0 {
		fmt.Println("# counters and gauges")
		for _, s := range sc.Samples {
			fmt.Printf("%-64s %g\n", s.Name+fmtLabels(s.Labels), s.Value)
		}
	}
	if len(sc.Histograms) > 0 {
		fmt.Println("# histograms (count / mean / p50 / p95 / p99)")
		for _, h := range sc.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / h.Count
			}
			fmt.Printf("%-64s n=%-8g mean=%-11s p50=%-11s p95=%-11s p99=%s\n",
				h.Name+fmtLabels(h.Labels), h.Count,
				fmtQuantity(h.Name, mean),
				fmtQuantity(h.Name, h.Quantile(0.50)),
				fmtQuantity(h.Name, h.Quantile(0.95)),
				fmtQuantity(h.Name, h.Quantile(0.99)))
		}
	}
	return nil
}

// endpointURL turns an endpoint argument — "host:port" or a URL — into a
// URL, appending path when the argument names no path of its own.
func endpointURL(arg, path string) string {
	u := arg
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if !strings.Contains(u[strings.Index(u, "://")+3:], "/") {
		u += path
	}
	return u
}

// debugClient is the HTTP client stats, trace and cache read an endpoint
// with: an endpoint that accepts and never answers fails the command
// instead of hanging it.
var debugClient = &http.Client{Timeout: 5 * time.Second}

// scrapeStats fetches and parses one /metrics exposition.
func scrapeStats(url string) (*obs.Scrape, error) {
	resp, err := debugClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %s returned %s", url, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// watchStats scrapes url every interval and prints only what moved since
// the previous scrape. Runs until interrupted.
func watchStats(url string, interval time.Duration) error {
	prev, err := scrapeStats(url)
	if err != nil {
		return err
	}
	fmt.Printf("watching %s every %v (deltas per interval; ctrl-c to stop)\n", url, interval)
	for {
		time.Sleep(interval)
		cur, err := scrapeStats(url)
		if err != nil {
			// A restarting server shouldn't kill the watch; report and
			// retry with the old baseline.
			fmt.Printf("-- scrape failed: %v\n", err)
			continue
		}
		printDelta(os.Stdout, prev, cur, interval)
		prev = cur
	}
}

func sampleKey(name string, labels map[string]string) string {
	return name + fmtLabels(labels)
}

// printDelta writes what moved between two scrapes. A counter or a
// histogram whose count went down was reset (the process restarted):
// its previous value counts as zero, as Prometheus's rate() does.
func printDelta(w io.Writer, prev, cur *obs.Scrape, interval time.Duration) {
	secs := interval.Seconds()
	fmt.Fprintf(w, "-- %s\n", time.Now().Format("15:04:05"))

	prevSamples := make(map[string]obs.Sample, len(prev.Samples))
	for _, s := range prev.Samples {
		prevSamples[sampleKey(s.Name, s.Labels)] = s
	}
	lines := 0
	sorted := append([]obs.Sample(nil), cur.Samples...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sampleKey(sorted[i].Name, sorted[i].Labels) < sampleKey(sorted[j].Name, sorted[j].Labels)
	})
	for _, s := range sorted {
		key := sampleKey(s.Name, s.Labels)
		p, ok := prevSamples[key]
		if ok && s.Value == p.Value {
			continue
		}
		if cur.Types[s.Name] == "counter" {
			d := s.Value - p.Value
			if d < 0 {
				d = s.Value
			}
			fmt.Fprintf(w, "%-64s +%-12g %8.1f/s\n", key, d, d/secs)
		} else {
			// Gauges show the new level, not a rate.
			fmt.Fprintf(w, "%-64s %-13g (was %g)\n", key, s.Value, p.Value)
		}
		lines++
	}

	prevHists := make(map[string]*obs.ScrapedHistogram, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevHists[sampleKey(h.Name, h.Labels)] = h
	}
	for _, h := range cur.Histograms {
		key := sampleKey(h.Name, h.Labels)
		p := prevHists[key]
		if p == nil || h.Count < p.Count {
			p = &obs.ScrapedHistogram{}
		}
		dn := h.Count - p.Count
		if dn == 0 {
			continue
		}
		iv := intervalHistogram(p, h)
		mean := 0.0
		if iv.Count > 0 {
			mean = iv.Sum / iv.Count
		}
		fmt.Fprintf(w, "%-64s n+=%-10g %8.1f/s mean=%-11s p50=%-11s p99=%s\n",
			key, dn, dn/secs,
			fmtQuantity(h.Name, mean),
			fmtQuantity(h.Name, iv.Quantile(0.50)),
			fmtQuantity(h.Name, iv.Quantile(0.99)))
		lines++
	}
	if lines == 0 {
		fmt.Fprintln(w, "(no change)")
	}
}

// intervalHistogram subtracts the previous scrape's cumulative buckets
// from the current ones, yielding the histogram of just the interval's
// observations. An empty previous histogram (none, or reset) or one with
// other bucket bounds degrades to the current cumulative state.
func intervalHistogram(prev, cur *obs.ScrapedHistogram) *obs.ScrapedHistogram {
	if prev.Count == 0 || len(prev.Buckets) != len(cur.Buckets) {
		return cur
	}
	iv := &obs.ScrapedHistogram{
		Name:   cur.Name,
		Labels: cur.Labels,
		Count:  cur.Count - prev.Count,
		Sum:    cur.Sum - prev.Sum,
	}
	iv.Buckets = make([]obs.BucketPoint, len(cur.Buckets))
	for i, b := range cur.Buckets {
		iv.Buckets[i] = obs.BucketPoint{LE: b.LE, Cum: b.Cum - prev.Buckets[i].Cum}
	}
	return iv
}

func fmtLabels(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, m[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// fmtQuantity renders seconds-unit histogram values as durations and
// everything else (batch sizes, byte counts) as plain numbers.
func fmtQuantity(name string, v float64) string {
	if strings.HasSuffix(name, "_seconds") {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
	}
	return fmt.Sprintf("%g", v)
}
