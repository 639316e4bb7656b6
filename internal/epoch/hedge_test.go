package epoch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// flakySource wedges the first attempt of selected groups (blocking until
// the attempt's context dies) and serves any retry/hedge immediately —
// the straggler shape hedging and deadlines exist to cut short.
type flakySource struct {
	snap *meta.Snapshot
	mu   sync.Mutex
	n    map[int]int      // attempts seen per group
	slow func(g int) bool // which groups wedge on their first attempt
}

func newFlakySource(snap *meta.Snapshot, slow func(g int) bool) *flakySource {
	return &flakySource{snap: snap, n: make(map[int]int), slow: slow}
}

func (s *flakySource) attempt(g int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n[g]++
	return s.n[g]
}

func (s *flakySource) attempts(g int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n[g]
}

func (s *flakySource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	if s.attempt(g) == 1 && s.slow(g) {
		<-ctx.Done() // wedged until hedged away, deadlined, or epoch torn down
		return nil, ctx.Err()
	}
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		out[pos-span.Start] = []byte(s.snap.FileName(int(plan.Files[pos])))
	}
	return out, nil
}

// TestHedgeFirstWins: a fast secondary source beats a wedged primary; the
// epoch completes in plan order from hedge wins, the losers' contexts are
// cancelled, and no goroutine outlives Close.
func TestHedgeFirstWins(t *testing.T) {
	before := runtime.NumGoroutine()
	snap := buildSnap(8, 4)
	plan := shuffle.ChunkWisePlan(snap, 21, 2)
	primary := newFlakySource(snap, func(int) bool { return true })
	secondary := newFakeSource(snap, 0)
	wins0 := mHedgeWins.Load()

	r := NewReader(plan, snap, primary, WithWindow(2),
		WithHedge(secondary), withHedgeDelayFloor(2*time.Millisecond))
	start := time.Now()
	if n := drainAll(t, r, plan, snap); n != snap.NumFiles() {
		t.Fatalf("consumed %d of %d files", n, snap.NumFiles())
	}
	r.Close()
	if wedged := time.Since(start); wedged > 5*time.Second {
		t.Fatalf("hedged epoch took %v; stragglers were not hedged away", wedged)
	}
	if got := mHedgeWins.Load() - wins0; got < uint64(len(plan.Groups)) {
		t.Errorf("hedge wins %d, want >= %d (every primary wedged)", got, len(plan.Groups))
	}
	if got := secondary.reads.Load(); got != int64(len(plan.Groups)) {
		t.Errorf("secondary served %d groups, want %d", got, len(plan.Groups))
	}
	assertNoGoroutineLeak(t, before)
}

// TestHedgeSameSourceRetry: WithHedge(nil) reissues through the primary
// source with a fresh context, so a per-attempt wedge still clears.
func TestHedgeSameSourceRetry(t *testing.T) {
	before := runtime.NumGoroutine()
	snap := buildSnap(6, 3)
	plan := shuffle.ChunkWisePlan(snap, 4, 2)
	src := newFlakySource(snap, func(g int) bool { return g%2 == 0 })
	hedges0 := mHedges.Load()

	r := NewReader(plan, snap, src, WithWindow(2),
		WithHedge(nil), withHedgeDelayFloor(2*time.Millisecond))
	drainAll(t, r, plan, snap)
	r.Close()
	for g := range plan.Groups {
		want := 1
		if g%2 == 0 {
			want = 2 // the wedged first attempt plus the winning hedge
		}
		if got := src.attempts(g); got != want {
			t.Errorf("group %d saw %d attempts, want %d", g, got, want)
		}
	}
	if mHedges.Load() == hedges0 {
		t.Error("no hedges counted despite wedged primaries")
	}
	assertNoGoroutineLeak(t, before)
}

// TestGroupDeadlineDegrades: with hedging off, a deadline trip earns one
// fresh-context retry instead of pinning the window slot forever.
func TestGroupDeadlineDegrades(t *testing.T) {
	before := runtime.NumGoroutine()
	snap := buildSnap(6, 3)
	plan := shuffle.ChunkWisePlan(snap, 13, 2)
	src := newFlakySource(snap, func(g int) bool { return g == 1 })
	trips0 := mDeadlineTrips.Load()
	hedges0 := mHedges.Load()

	r := NewReader(plan, snap, src, WithWindow(2), WithGroupDeadline(20*time.Millisecond))
	drainAll(t, r, plan, snap)
	r.Close()
	if got := mDeadlineTrips.Load() - trips0; got < 1 {
		t.Errorf("deadline trips %d, want >= 1", got)
	}
	if got := mHedges.Load() - hedges0; got != 0 {
		t.Errorf("deadline-only retries counted as %d hedges", got)
	}
	assertNoGoroutineLeak(t, before)
}

// TestGroupDeadlineBothFail: when the fallback attempt also dies, Next
// surfaces a joined error naming both failures.
func TestGroupDeadlineBothFail(t *testing.T) {
	snap := buildSnap(2, 2)
	plan := shuffle.ChunkWisePlan(snap, 3, 1)
	// Every attempt wedges: primary trips the deadline, so does the retry.
	src := newFlakySource(snap, nil)
	src.slow = func(int) bool { return true }
	alwaysSlow := &wedgeEverySource{inner: src}

	r := NewReader(plan, snap, alwaysSlow, WithWindow(1), WithGroupDeadline(10*time.Millisecond))
	defer r.Close()
	var err error
	for {
		if _, err = r.Next(); err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("epoch completed despite every attempt wedging")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}

// wedgeEverySource blocks every attempt until its context dies.
type wedgeEverySource struct{ inner *flakySource }

func (s *wedgeEverySource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestReorderWindowDelivery: with group 0 slow and a reorder window open,
// later groups are served first; every position is still served exactly
// once with exact Pos/Path/Data, within-group order holds, and the
// delivery skew never exceeds k.
func TestReorderWindowDelivery(t *testing.T) {
	snap := buildSnap(10, 4)
	plan := shuffle.ChunkWisePlan(snap, 17, 2)
	k := 2
	src := &slowGroupSource{snap: snap, slowGroup: 0, delay: 80 * time.Millisecond}
	served0 := mReorderServed.Load()

	r := NewReader(plan, snap, src, WithWindow(3), WithReorderWindow(k))
	defer r.Close()

	seen := make([]bool, snap.NumFiles())
	servedGroups := make([]bool, len(plan.Groups))
	low := 0
	var order []int
	lastPos := -1
	for {
		s, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Pos] {
			t.Fatalf("pos %d served twice", s.Pos)
		}
		seen[s.Pos] = true
		wantPath := snap.FileName(int(plan.Files[s.Pos]))
		if s.Path != wantPath || string(s.Data) != wantPath {
			t.Fatalf("pos %d: path %q data %q, want %q", s.Pos, s.Path, s.Data, wantPath)
		}
		if want := plan.GroupOf(s.Pos); s.Group != want {
			t.Fatalf("pos %d: group %d, want %d", s.Pos, s.Group, want)
		}
		if len(order) == 0 || order[len(order)-1] != s.Group {
			// New group installed: bounded skew against the oldest
			// unserved group at installation time.
			if skew := s.Group - low; skew > k {
				t.Fatalf("group %d served %d ahead of oldest unserved %d (k=%d)", s.Group, skew, low, k)
			}
			order = append(order, s.Group)
			servedGroups[s.Group] = true
			for low < len(servedGroups) && servedGroups[low] {
				low++
			}
			lastPos = -1
		}
		if lastPos >= 0 && s.Pos != lastPos+1 {
			t.Fatalf("within-group order broken: pos %d after %d", s.Pos, lastPos)
		}
		lastPos = s.Pos
	}
	for pos, ok := range seen {
		if !ok {
			t.Fatalf("pos %d never served", pos)
		}
	}
	if order[0] == 0 {
		t.Error("slow group 0 was served first; reorder window had no effect")
	}
	if mReorderServed.Load() == served0 {
		t.Error("diesel_epoch_reorder_served_total never incremented")
	}
}

// slowGroupSource delays exactly one group; the rest return immediately.
type slowGroupSource struct {
	snap      *meta.Snapshot
	slowGroup int
	delay     time.Duration
}

func (s *slowGroupSource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	if g == s.slowGroup {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		out[pos-span.Start] = []byte(s.snap.FileName(int(plan.Files[pos])))
	}
	return out, nil
}

// TestReorderZeroIsStrictOrder: k=0 (and k>0 with window=0, where it is
// documented to be ignored) keeps the byte-for-byte strict plan order.
func TestReorderZeroIsStrictOrder(t *testing.T) {
	snap := buildSnap(8, 3)
	plan := shuffle.ChunkWisePlan(snap, 29, 2)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"k=0_window=2", []Option{WithWindow(2), WithReorderWindow(0)}},
		{"k=3_window=0", []Option{WithWindow(0), WithReorderWindow(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newFakeSource(snap, 100*time.Microsecond)
			r := NewReader(plan, snap, src, tc.opts...)
			defer r.Close()
			// drainAll asserts exact plan order, position by position.
			if n := drainAll(t, r, plan, snap); n != snap.NumFiles() {
				t.Fatalf("consumed %d of %d files", n, snap.NumFiles())
			}
		})
	}
}

// TestGroupFetchLatBothPaths: the group-fetch histogram must be populated
// by the synchronous window=0 path and the pipelined path alike — the
// window=0 baseline is exactly what benchmark comparisons divide by.
func TestGroupFetchLatBothPaths(t *testing.T) {
	snap := buildSnap(5, 3)
	plan := shuffle.ChunkWisePlan(snap, 7, 1)
	for _, window := range []int{0, 2} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			count0 := mGroupFetchLat.Count()
			src := newFakeSource(snap, 0)
			r := NewReader(plan, snap, src, WithWindow(window))
			defer r.Close()
			drainAll(t, r, plan, snap)
			if got := mGroupFetchLat.Count() - count0; got != uint64(len(plan.Groups)) {
				t.Errorf("window=%d observed %d group fetches, want %d",
					window, got, len(plan.Groups))
			}
		})
	}
}

// TestHedgingBoundsStalls is the acceptance property as a test: with a
// deterministic 1-in-4 straggler whose first attempt wedges ~400ms, the
// hedged reader's worst single Next call stays far below the straggler
// latency, while the unhedged reader is exposed to it in full.
func TestHedgingBoundsStalls(t *testing.T) {
	snap := buildSnap(16, 3)
	plan := shuffle.ChunkWisePlan(snap, 31, 2)
	straggle := func(g int) bool { return g%4 == 3 }

	run := func(opts ...Option) time.Duration {
		src := newStragglerSource(snap, straggle, 400*time.Millisecond)
		base := []Option{WithWindow(2)}
		r := NewReader(plan, snap, src, append(base, opts...)...)
		defer r.Close()
		var worst time.Duration
		for {
			start := time.Now()
			_, err := r.Next()
			if d := time.Since(start); d > worst {
				worst = d
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return worst
	}

	unhedged := run()
	hedged := run(WithHedge(nil), withHedgeDelayFloor(10*time.Millisecond),
		WithGroupDeadline(2*time.Second))
	if unhedged < 300*time.Millisecond {
		t.Fatalf("unhedged worst stall %v; straggler injection not visible", unhedged)
	}
	if hedged >= unhedged/2 {
		t.Errorf("hedged worst stall %v vs unhedged %v; want < half", hedged, unhedged)
	}
}

// stragglerSource wedges the first attempt of straggler groups for a
// bounded delay (not until cancel), modeling a 10x-slow disk read.
type stragglerSource struct {
	snap  *meta.Snapshot
	slow  func(g int) bool
	delay time.Duration
	mu    sync.Mutex
	n     map[int]int
}

func newStragglerSource(snap *meta.Snapshot, slow func(g int) bool, delay time.Duration) *stragglerSource {
	return &stragglerSource{snap: snap, slow: slow, delay: delay, n: make(map[int]int)}
}

func (s *stragglerSource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	s.mu.Lock()
	s.n[g]++
	first := s.n[g] == 1
	s.mu.Unlock()
	wait := time.Millisecond
	if first && s.slow(g) {
		wait = s.delay
	}
	select {
	case <-time.After(wait):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		out[pos-span.Start] = []byte(s.snap.FileName(int(plan.Files[pos])))
	}
	return out, nil
}

// TestHedgeCloseMidFlight: closing the reader while hedge attempts are in
// flight joins every attempt goroutine before Close returns.
func TestHedgeCloseMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	snap := buildSnap(12, 3)
	plan := shuffle.ChunkWisePlan(snap, 19, 2)
	src := newFlakySource(snap, func(int) bool { return true })
	r := NewReader(plan, snap, src, WithWindow(3),
		WithHedge(nil), withHedgeDelayFloor(time.Millisecond))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.Next(); !errors.Is(err, ErrClosed) && err != io.EOF {
		// Close raced the buffered current group: either outcome is fine,
		// but an unrelated error is not.
		if err == nil {
			// Buffered samples of the installed group may still drain.
			for {
				_, err = r.Next()
				if err != nil {
					break
				}
			}
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("after Close: %v", err)
			}
		} else {
			t.Fatalf("after Close: %v", err)
		}
	}
	assertNoGoroutineLeak(t, before)
}
