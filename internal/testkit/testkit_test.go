package testkit

import (
	"fmt"
	"strings"
	"testing"
)

var sink []byte

// TestSitesCountsEveryAllocation: 64-byte allocations, one per call, read
// as one allocation and 64 bytes per call; this file's frames name no
// site, so they are "other".
func TestSitesCountsEveryAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("Sites measures nothing under the race detector")
	}
	got := Sites(1000, func() { sink = make([]byte, 64) })
	if c := got["other"]; c.Allocs < 1 || c.Allocs > 1.05 || c.Bytes < 64 || c.Bytes > 70 {
		t.Errorf("other = %+v, want 1 alloc and 64 B per call; all: %v", c, got)
	}
}

// recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper()             {}
func (r *recorder) Logf(string, ...any) {}
func (r *recorder) Errorf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// TestCheckFailures: each of Check's failures, and a pass.
func TestCheckFailures(t *testing.T) {
	if raceEnabled {
		t.Skip("Check skips under the race detector")
	}
	table := Table{Sites: map[string]float64{"a": 2}, Other: 0.3, Allocs: 2.5, Bytes: 100}
	for _, tc := range []struct {
		name string
		got  map[string]Cost
		want string // "" = passes
	}{
		{"within", map[string]Cost{"a": {2.2, 80}, "b": {0.2, 5}, "tiny": {0.05, 0}}, ""},
		{"a site grew", map[string]Cost{"a": {2.3, 80}}, `"a": 2.300 allocs/op, row 2`},
		{"a new site", map[string]Cost{"a": {1, 80}, "b": {0.25, 5}}, `"b": 0.250 allocs/op, and the table has no row`},
		{"the small sites together", map[string]Cost{"b": {0.2, 5}, "c": {0.2, 5}}, "0.400 allocs/op together"},
		{"other counts with them", map[string]Cost{"other": {0.5, 5}}, "0.500 allocs/op together"},
		{"the total", map[string]Cost{"a": {2.2, 80}, "tiny": {0.4, 0}}, "2.600 allocs/op, limit 2.5"},
		{"the bytes", map[string]Cost{"a": {2, 120}}, "120 B/op, limit 100"},
	} {
		r := &recorder{TB: t}
		Check(r, table, tc.got)
		switch all := strings.Join(r.errs, "; "); {
		case tc.want == "" && all != "":
			t.Errorf("%s: failed: %s", tc.name, all)
		case tc.want != "" && !strings.Contains(all, tc.want):
			t.Errorf("%s: reported %q, want %q", tc.name, all, tc.want)
		}
	}
}
