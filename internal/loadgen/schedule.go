package loadgen

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Fault is one scripted fault window: Apply fires at Start on the run
// timeline, Revert at Start+Dur. The loadgen runner executes the
// schedule on its own goroutine while arrivals keep flowing — that is
// the point: the generator never slows down because the system under
// test is hurting.
type Fault struct {
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Apply  func() error
	Revert func() error
}

// Schedule is a set of non-overlapping fault windows ordered by start
// time. Per-phase recording attributes each operation to the window its
// intended start falls in.
type Schedule []Fault

// validate checks ordering and non-overlap (overlapping windows would
// make per-phase attribution ambiguous).
func (s Schedule) validate() error {
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Start < s[j].Start }) {
		return fmt.Errorf("loadgen: fault schedule not sorted by start time")
	}
	for i, f := range s {
		if f.Dur <= 0 {
			return fmt.Errorf("loadgen: fault %q has non-positive duration", f.Name)
		}
		if i > 0 && s[i-1].Start+s[i-1].Dur > f.Start {
			return fmt.Errorf("loadgen: fault %q overlaps %q", f.Name, s[i-1].Name)
		}
	}
	return nil
}

// windowAt returns the index of the window containing offset, or -1.
func (s Schedule) windowAt(off time.Duration) int {
	for i, f := range s {
		if off < f.Start {
			return -1
		}
		if off < f.Start+f.Dur {
			return i
		}
	}
	return -1
}

// run walks the schedule in real time from start, calling Apply/Revert at
// the window edges. Apply/Revert errors are reported through onErr and do
// not stop the walk; a Revert always runs if its Apply ran, even when the
// context is cancelled mid-window, so a killed node never stays dead
// because the run was interrupted.
func (s Schedule) run(ctx context.Context, start time.Time, onErr func(name string, err error)) {
	for _, f := range s {
		if !sleepUntil(ctx, start.Add(f.Start)) {
			return
		}
		if f.Apply != nil {
			if err := f.Apply(); err != nil {
				onErr(f.Name, fmt.Errorf("apply: %w", err))
			}
		}
		sleepUntil(ctx, start.Add(f.Start+f.Dur))
		if f.Revert != nil {
			if err := f.Revert(); err != nil {
				onErr(f.Name, fmt.Errorf("revert: %w", err))
			}
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// sleepUntil sleeps until t or the context ends; it reports whether the
// deadline was reached (false = cancelled first).
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
