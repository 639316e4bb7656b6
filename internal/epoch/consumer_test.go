package epoch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// withHedgeDelayFloor shrinks the hedge delay floor (hedgeDelayFloor in
// production) so the hedge tests trip in milliseconds.
func withHedgeDelayFloor(d time.Duration) Option {
	return func(c *config) { c.hedgeFloor = d }
}

// scrambledSource finishes concurrent group fetches in a seeded random
// order (each group sleeps its own seeded delay) and can fail one group.
type scrambledSource struct {
	snap      *meta.Snapshot
	delays    []time.Duration // per group
	failGroup int             // -1: never
	active    atomic.Int64
	maxActive atomic.Int64
}

func newScrambledSource(snap *meta.Snapshot, plan *shuffle.Plan, seed int64) *scrambledSource {
	rng := rand.New(rand.NewSource(seed))
	s := &scrambledSource{snap: snap, failGroup: -1, delays: make([]time.Duration, len(plan.Groups))}
	for g := range s.delays {
		s.delays[g] = time.Duration(rng.Intn(3000)) * time.Microsecond
	}
	return s
}

func (s *scrambledSource) ReadGroup(ctx context.Context, plan *shuffle.Plan, g int) ([][]byte, error) {
	cur := s.active.Add(1)
	defer s.active.Add(-1)
	for m := s.maxActive.Load(); cur > m && !s.maxActive.CompareAndSwap(m, cur); m = s.maxActive.Load() {
	}
	select {
	case <-time.After(s.delays[g]):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if g == s.failGroup {
		return nil, errors.New("injected group failure")
	}
	span := plan.Groups[g]
	out := make([][]byte, span.End-span.Start)
	for pos := span.Start; pos < span.End; pos++ {
		out[pos-span.Start] = []byte(s.snap.FileName(int(plan.Files[pos])))
	}
	return out, nil
}

// inFlight is what the one consumer holds of the pipeline's output: results
// announced but not yet installed. Consumer-goroutine only.
func inFlight(r *Reader) int { return len(r.completed) + len(r.held) }

// TestConsumerDeliveryContract drives the one consumer over a source that
// completes groups in a scrambled order: whatever the reorder and prefetch
// windows, every position is delivered exactly once with its own bytes,
// plan order holds within a group, no group is served more than reorder
// groups ahead of the oldest unserved one (reorder 0: exact plan order,
// and the reorder counter stays put), and never more than window results
// are in flight.
func TestConsumerDeliveryContract(t *testing.T) {
	snap := buildSnap(24, 3)
	plan := shuffle.ChunkWisePlan(snap, 41, 2)
	for _, reorder := range []int{0, 1, 3} {
		for _, window := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("reorder=%d_window=%d", reorder, window), func(t *testing.T) {
				before := runtime.NumGoroutine()
				src := newScrambledSource(snap, plan, int64(100*reorder+window))
				reordered0 := mReorderServed.Load()
				r := NewReader(plan, snap, src, WithWindow(window), WithReorderWindow(reorder))

				seen := make([]bool, snap.NumFiles())
				servedGroups := make([]bool, len(plan.Groups))
				low, curGroup, lastPos, n := 0, -1, -1, 0
				for {
					s, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := inFlight(r); got > window {
						t.Fatalf("%d results in flight, window %d", got, window)
					}
					if seen[s.Pos] {
						t.Fatalf("pos %d served twice", s.Pos)
					}
					seen[s.Pos] = true
					if want := snap.FileName(int(plan.Files[s.Pos])); s.Path != want || string(s.Data) != want {
						t.Fatalf("pos %d: path %q data %q, want %q", s.Pos, s.Path, s.Data, want)
					}
					if want := plan.GroupOf(s.Pos); s.Group != want {
						t.Fatalf("pos %d: group %d, want %d", s.Pos, s.Group, want)
					}
					if reorder == 0 && s.Pos != n {
						t.Fatalf("reorder 0: sample %d has Pos %d", n, s.Pos)
					}
					if s.Group != curGroup {
						if servedGroups[s.Group] {
							t.Fatalf("group %d installed twice", s.Group)
						}
						if skew := s.Group - low; skew > reorder {
							t.Fatalf("group %d served %d ahead of oldest unserved %d (reorder %d)", s.Group, skew, low, reorder)
						}
						if s.Pos != plan.Groups[s.Group].Start {
							t.Fatalf("group %d starts at pos %d, want %d", s.Group, s.Pos, plan.Groups[s.Group].Start)
						}
						servedGroups[s.Group] = true
						for low < len(servedGroups) && servedGroups[low] {
							low++
						}
						curGroup = s.Group
					} else if s.Pos != lastPos+1 {
						t.Fatalf("within-group order broken: pos %d after %d", s.Pos, lastPos)
					}
					lastPos = s.Pos
					n++
				}
				if n != snap.NumFiles() {
					t.Fatalf("served %d of %d files", n, snap.NumFiles())
				}
				if err := r.Err(); err != nil {
					t.Fatalf("Err after clean drain: %v", err)
				}
				if got := src.maxActive.Load(); got > int64(window) {
					t.Errorf("%d concurrent fetches, window %d", got, window)
				}
				if d := mReorderServed.Load() - reordered0; reorder == 0 && d != 0 {
					t.Errorf("diesel_epoch_reorder_served_total moved by %d at reorder 0", d)
				}
				r.Close()
				assertNoGoroutineLeak(t, before)
			})
		}
	}
}

// TestConsumerTeardown: Close mid-epoch and a failing group both leave no
// goroutine behind and never more than window results in flight, at every
// reorder window.
func TestConsumerTeardown(t *testing.T) {
	snap := buildSnap(24, 3)
	plan := shuffle.ChunkWisePlan(snap, 43, 2)
	const window = 3
	for _, reorder := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("close/reorder=%d", reorder), func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := NewReader(plan, snap, newScrambledSource(snap, plan, 7), WithWindow(window), WithReorderWindow(reorder))
			for range 5 {
				if _, err := r.Next(); err != nil {
					t.Fatal(err)
				}
			}
			r.Close()
			if got := inFlight(r); got > window {
				t.Errorf("%d results in flight after Close, window %d", got, window)
			}
			if _, err := r.Next(); !errors.Is(err, ErrClosed) {
				t.Errorf("Next after Close: %v, want ErrClosed", err)
			}
			if err := r.Err(); err != nil {
				t.Errorf("Err after local Close: %v", err)
			}
			assertNoGoroutineLeak(t, before)
		})
		t.Run(fmt.Sprintf("fail/reorder=%d", reorder), func(t *testing.T) {
			before := runtime.NumGoroutine()
			src := newScrambledSource(snap, plan, 11)
			src.failGroup = 4
			r := NewReader(plan, snap, src, WithWindow(window), WithReorderWindow(reorder))
			var err error
			for err == nil {
				var s Sample
				if s, err = r.Next(); err == nil && s.Group == src.failGroup {
					t.Fatalf("pos %d served from the failing group", s.Pos)
				}
				if got := inFlight(r); got > window {
					t.Fatalf("%d results in flight, window %d", got, window)
				}
			}
			if err == io.EOF || r.Err() == nil {
				t.Fatalf("injected failure never surfaced: Next %v, Err %v", err, r.Err())
			}
			r.Close()
			assertNoGoroutineLeak(t, before)
		})
	}
}
