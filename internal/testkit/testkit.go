// Package testkit measures what a read path allocates, site by site, for
// the allocation tables that tier-1 tests keep beside the paths they
// drive; only _test.go files import it. A Table is one path's whole
// allocation budget, and a test holds the path to it with
//
//	testkit.Check(t, getDirectTable, testkit.Sites(2000, read))
//
// A site is the two innermost frames of this module's internal packages
// that led to the allocation, callee first, for example
// "wire.(*Decoder).String ← server.(*RPCServer).register.func2": the code
// that allocated and the code that asked for it. Frames of _test.go files
// and of this package are skipped. An allocation with no other frame of
// the module (a new goroutine's descriptor, the runtime's own work), and
// a cache that a GC cycle emptied filling again (a sync.Pool, the sudogs
// of parked goroutines), is the site "other", which counts with the small
// sites: a pool that stops keeping its items shows there.
package testkit

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// slack is how far a site may read past its row, in allocs/op, and the
// size from which a site that has no row fails: a sync.Pool that a GC
// cycle emptied refills now and then, and the race-free count of a site
// is otherwise exact.
const slack = 0.25

// Table is one path's allocation budget.
type Table struct {
	// Sites holds allocs/op per site.
	Sites map[string]float64
	// Other bounds the allocs/op of the sites without a row and of the
	// site "other", together. Each site without a row must also stay
	// under 0.25.
	Other float64
	// Allocs bounds the path's allocs/op, every site and "tiny" included.
	Allocs float64
	// Bytes bounds the path's B/op, every site included.
	Bytes float64
}

// Nothing is the table of a path that allocates nothing: no site, and
// room in "other" for the few allocations that a run's GC cycles cost the
// runtime and the pools (a sync.Pool's per-P array, an item that a
// goroutine on another P cannot reach), not for one per call.
var Nothing = Table{Other: 0.01, Allocs: 0.01, Bytes: 256}

// Cost is what one site allocates per call.
type Cost struct {
	Allocs, Bytes float64
}

const module = "diesel/internal/"

// procs is GOMAXPROCS while Sites runs.
const procs = 2

// Sites calls fn twice to warm it, then n times, and returns allocs/op
// and B/op per site of the n calls. It profiles every allocation while
// it runs, on procs Ps. The profile cannot name an allocation under 16 bytes without
// pointers that shares a 16-byte block with an earlier one; those count
// as the site "tiny", which only the table's Allocs bounds. Under the
// race detector, which drops pooled items at random, it calls nothing and
// returns nil; Check then skips.
func Sites(n int, fn func()) map[string]Cost {
	if raceEnabled {
		return nil
	}
	rate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = rate }()
	runtime.MemProfileRate = 1
	// Every P keeps caches that a GC cycle empties (pools, sudogs): a
	// fixed number of Ps makes their refills cost the same on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn() // connections, caches, pools
	// A GC cycle publishes the records of what was allocated before it and
	// moves every sync.Pool's items to a victim cache, which the next one
	// empties. The second warm call takes them back, so the counted calls
	// find them where the GC before the first read left them.
	runtime.GC()
	fn()
	before := profile()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	tiny := float64(m1.Mallocs - m0.Mallocs)
	out := map[string]Cost{}
	for key, after := range profile() {
		prev := before[key]
		name := site(key.stk[:])
		if allocs := after.AllocObjects - prev.AllocObjects; allocs > 0 && name != "" {
			tiny -= float64(allocs)
			c := out[name]
			c.Allocs += float64(allocs) / float64(n)
			c.Bytes += float64(after.AllocBytes-prev.AllocBytes) / float64(n)
			out[name] = c
		}
	}
	if tiny > 0 {
		out["tiny"] = Cost{Allocs: tiny / float64(n)}
	}
	return out
}

// record keys a heap profile record: the runtime keeps one per stack and
// allocation size.
type record struct {
	stk  [32]uintptr
	size int64
}

// profile runs a GC cycle, which publishes the records of what was
// allocated before it, and returns the heap profile's records.
func profile() map[record]runtime.MemProfileRecord {
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/4)
	}
	out := make(map[record]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		out[record{r.Stack0, r.AllocBytes / max(r.AllocObjects, 1)}] = r
	}
	return out
}

// site names a stack by its two innermost frames in the module. It
// returns "other" for a cache that a GC cycle emptied, filling again: a
// sync.Pool's New or per-P lists, the sudogs of parked goroutines. It
// returns "" for profile's own allocations.
func site(stk []uintptr) string {
	var names []string
	frames := runtime.CallersFrames(stk)
	for first, more := true, true; more; first = false {
		var f runtime.Frame
		f, more = frames.Next()
		name, ours := strings.CutPrefix(f.Function, module)
		switch {
		case name == "testkit.profile":
			return ""
		case f.Function == "sync.(*Pool).Get",
			first && (strings.HasPrefix(f.Function, "sync.") || f.Function == "runtime.acquireSudog"):
			return "other"
		case ours && len(names) < 2 && !strings.HasPrefix(name, "testkit.") && !strings.HasSuffix(f.File, "_test.go"):
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "other"
	}
	return strings.Join(names, " ← ")
}

// Check fails t when a site reads more than 0.25 past its row, when a
// site without a row reaches 0.25, when the sites without a row and
// "other" together exceed table.Other, or when the path's allocs/op or
// B/op exceed table.Allocs or table.Bytes. It logs the measured sites,
// largest first, for reading and for lowering a table. Under the race
// detector it skips.
func Check(t testing.TB, table Table, got map[string]Cost) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	names := make([]string, 0, len(got))
	var rest, allocs, bytes float64
	for name, c := range got {
		names = append(names, name)
		allocs += c.Allocs
		bytes += c.Bytes
		switch row, listed := table.Sites[name]; {
		case name == "tiny": // no site to hold to a row; Allocs bounds it
		case listed:
			if c.Allocs > row+slack {
				t.Errorf("%q: %.3f allocs/op, row %g", name, c.Allocs, row)
			}
		case name != "other" && c.Allocs >= slack:
			t.Errorf("%q: %.3f allocs/op, and the table has no row for it", name, c.Allocs)
		default:
			rest += c.Allocs
		}
	}
	if rest > table.Other {
		t.Errorf("the sites without a row: %.3f allocs/op together, other row %g", rest, table.Other)
	}
	if allocs > table.Allocs {
		t.Errorf("%.3f allocs/op, limit %g", allocs, table.Allocs)
	}
	if bytes > table.Bytes {
		t.Errorf("%.0f B/op, limit %g", bytes, table.Bytes)
	}
	sort.Slice(names, func(i, j int) bool { return got[names[i]].Allocs > got[names[j]].Allocs })
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "\n\t%q: %.3f, // %.0f B/op", name, got[name].Allocs, got[name].Bytes)
	}
	t.Logf("%.3f allocs/op, %.0f B/op; sites:%s", allocs, bytes, b.String())
}
