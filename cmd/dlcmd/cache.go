package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"diesel/internal/server"
)

// runCache scrapes one or more /debug/cache endpoints (diesel-server
// started with -metrics and -ssd-cache) and pretty-prints each server's
// tier occupancy: fast-tier bytes and hit rate, the spill tier's
// entries, segments and traffic, and per-dataset resident bytes across
// both tiers.
// Like stats/trace/diag it talks HTTP to the metrics address, so it
// needs neither -dataset nor a DIESEL connection.
func runCache(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cache <host:port | url>...")
	}
	var lastErr error
	for i, arg := range args {
		if i > 0 {
			fmt.Println()
		}
		if err := printCache(arg); err != nil {
			fmt.Printf("%s: %v\n", arg, err)
			lastErr = err
		}
	}
	return lastErr
}

// cacheURL normalizes "host:port" to the /debug/cache endpoint URL.
func cacheURL(arg string) string {
	url := arg
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url[strings.Index(url, "://")+3:], "/") {
		url += "/debug/cache"
	}
	return url
}

func printCache(arg string) error {
	url := cacheURL(arg)
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var cd server.CacheDebug
	if err := json.Unmarshal(body, &cd); err != nil {
		return fmt.Errorf("bad /debug/cache body: %w", err)
	}

	fmt.Printf("%s\n", url)
	total := cd.FastHits + cd.FastMisses
	rate := 0.0
	if total > 0 {
		rate = float64(cd.FastHits) / float64(total)
	}
	fmt.Printf("fast tier:  %12d bytes   hits=%d misses=%d (%.1f%% hit rate)\n",
		cd.FastBytes, cd.FastHits, cd.FastMisses, 100*rate)
	sp := cd.Spill
	if !sp.Enabled {
		fmt.Println("spill tier: disabled")
	} else {
		fmt.Printf("spill tier: %12d bytes   %d objects in %d segments (%d bytes on disk)\n",
			sp.Bytes, sp.Entries, sp.Segments, sp.DiskBytes)
		fmt.Printf("            hits=%d demotions=%d dropped=%d rewarmed=%d (%d bytes)\n",
			sp.Hits, sp.Demotions, sp.Dropped, sp.RewarmEntries, sp.RewarmBytes)
	}
	if len(cd.Datasets) > 0 {
		names := make([]string, 0, len(cd.Datasets))
		for ds := range cd.Datasets {
			names = append(names, ds)
		}
		sort.Strings(names)
		fmt.Printf("%-24s %14s %14s\n", "DATASET", "FAST-BYTES", "SPILL-BYTES")
		for _, ds := range names {
			tb := cd.Datasets[ds]
			fmt.Printf("%-24s %14d %14d\n", ds, tb.FastBytes, tb.SpillBytes)
		}
	}
	return nil
}
