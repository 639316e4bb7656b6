package main

import (
	"slices"
	"strings"
	"testing"
	"time"

	"diesel/internal/obs"
)

// TestEndpointURL: a bare host:port gets the scheme and the command's
// default path; a URL keeps what it names, its path included.
func TestEndpointURL(t *testing.T) {
	for _, path := range []string{"/metrics", "/debug/cache", "/debug/traces", "/debug/diag"} {
		for _, c := range []struct{ arg, want string }{
			{"127.0.0.1:9400", "http://127.0.0.1:9400" + path},
			{"http://127.0.0.1:9400", "http://127.0.0.1:9400" + path},
			{"https://host:9400", "https://host:9400" + path},
			{"http://127.0.0.1:9400/other", "http://127.0.0.1:9400/other"},
			{"127.0.0.1:9400/other", "http://127.0.0.1:9400/other"},
		} {
			if got := endpointURL(c.arg, path); got != c.want {
				t.Errorf("endpointURL(%q, %q) = %q, want %q", c.arg, path, got, c.want)
			}
		}
	}
}

// TestPrintDelta: what moved between two scrapes, per interval. A
// counter or histogram whose count went down was reset by a restart and
// counts from zero — no negative delta, and the histogram is not hidden
// until it passes its old count.
func TestPrintDelta(t *testing.T) {
	counter := func(v string) string {
		return "# TYPE x_total counter\nx_total " + v + "\n"
	}
	hist := func(fast, all string) string {
		return "# TYPE lat_seconds histogram\n" +
			"lat_seconds_bucket{le=\"0.001\"} " + fast + "\n" +
			"lat_seconds_bucket{le=\"+Inf\"} " + all + "\n" +
			"lat_seconds_sum 0.5\n" +
			"lat_seconds_count " + all + "\n"
	}
	for _, c := range []struct {
		name, prev, cur string
		want            []string // fields of the one line that moved
	}{
		{"counter increase", counter("10"), counter("25"), []string{"x_total", "+15", "3.0/s"}},
		{"counter reset", counter("100"), counter("4"), []string{"x_total", "+4", "0.8/s"}},
		{"histogram increase", hist("8", "10"), hist("20", "30"), []string{"lat_seconds", "n+=20", "4.0/s"}},
		{"histogram reset", hist("90", "100"), hist("6", "6"), []string{"lat_seconds", "n+=6", "1.2/s"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			prev, err := obs.ParseText(strings.NewReader(c.prev))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := obs.ParseText(strings.NewReader(c.cur))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			printDelta(&out, prev, cur, 5*time.Second)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != 2 || !strings.HasPrefix(lines[0], "-- ") {
				t.Fatalf("output:\n%s\nwant a timestamp line and one delta line", out.String())
			}
			got := strings.Fields(lines[1])
			if len(got) < len(c.want) || !slices.Equal(got[:len(c.want)], c.want) {
				t.Fatalf("delta line %q, want it to start with %q", lines[1], c.want)
			}
		})
	}
}
