package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRetry covers the one idempotent-retry loop the client's reads and
// the metadata cluster's gets share.
func TestRetry(t *testing.T) {
	ok := &Frame{Method: "ok"}
	transport := func(i int) error { return fmt.Errorf("transport-%d: %w", i, ErrClientClosed) }
	for _, tc := range []struct {
		name    string
		retries int
		backoff time.Duration
		// call is attempt number → result; cancel, when set, fires as the
		// first attempt fails so the loop is cut short mid-backoff.
		call         func(i int) (*Frame, error)
		cancel       bool
		wantResp     *Frame
		wantAttempts int
		wantRetries  int
		wantErr      []string // substrings; empty = nil error
		wantRemote   bool
		wantIs       error
		atMost       time.Duration
	}{
		{
			name: "success first try", retries: 2, backoff: time.Millisecond,
			call:     func(int) (*Frame, error) { return ok, nil },
			wantResp: ok, wantAttempts: 1,
		},
		{
			name: "transport error retried and counted", retries: 2, backoff: time.Millisecond,
			call: func(i int) (*Frame, error) {
				if i < 2 {
					return nil, transport(i)
				}
				return ok, nil
			},
			wantResp: ok, wantAttempts: 3, wantRetries: 2,
		},
		{
			name: "remote error not retried", retries: 5, backoff: time.Millisecond,
			call:         func(int) (*Frame, error) { return nil, &RemoteError{Msg: "no such file"} },
			wantAttempts: 1, wantErr: []string{"no such file"}, wantRemote: true,
		},
		{
			name: "exhaustion joins every attempt's error", retries: 2, backoff: time.Millisecond,
			call:         func(i int) (*Frame, error) { return nil, transport(i) },
			wantAttempts: 3, wantRetries: 2,
			wantErr: []string{"transport-0", "transport-1", "transport-2"}, wantIs: ErrClientClosed,
		},
		{
			name: "no retries configured", retries: 0, backoff: time.Millisecond,
			call:         func(i int) (*Frame, error) { return nil, transport(i) },
			wantAttempts: 1, wantErr: []string{"transport-0"},
		},
		{
			name: "cancel during backoff returns at once", retries: 5, backoff: time.Minute,
			call:   func(i int) (*Frame, error) { return nil, transport(i) },
			cancel: true, wantAttempts: 1, wantRetries: 1,
			wantErr: []string{"transport-0", "context canceled"}, wantIs: context.Canceled,
			atMost: 5 * time.Second,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls, retries := 0, 0
			start := time.Now()
			resp, attempts, err := Retry(ctx, tc.retries, tc.backoff, func() { retries++ },
				func() (*Frame, error) {
					f, err := tc.call(calls)
					calls++
					if tc.cancel {
						time.AfterFunc(10*time.Millisecond, cancel)
					}
					return f, err
				})
			if resp != tc.wantResp {
				t.Errorf("resp = %v, want %v", resp, tc.wantResp)
			}
			if attempts != tc.wantAttempts || calls != tc.wantAttempts {
				t.Errorf("attempts = %d (calls %d), want %d", attempts, calls, tc.wantAttempts)
			}
			if retries != tc.wantRetries {
				t.Errorf("onRetry ran %d times, want %d", retries, tc.wantRetries)
			}
			if len(tc.wantErr) == 0 && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			for _, sub := range tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), sub) {
					t.Errorf("error %v does not mention %q", err, sub)
				}
			}
			if IsRemote(err) != tc.wantRemote {
				t.Errorf("IsRemote(%v) = %v", err, !tc.wantRemote)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("error %v is not %v", err, tc.wantIs)
			}
			if tc.atMost > 0 && time.Since(start) > tc.atMost {
				t.Errorf("took %v, want < %v", time.Since(start), tc.atMost)
			}
		})
	}

	t.Run("already cancelled makes one attempt and no retry", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		retries := 0
		_, attempts, err := Retry(ctx, 5, time.Minute, func() { retries++ },
			func() (*Frame, error) { return nil, fmt.Errorf("call: %w", ctx.Err()) })
		if attempts != 1 || retries != 0 || !errors.Is(err, context.Canceled) {
			t.Errorf("attempts=%d retries=%d err=%v", attempts, retries, err)
		}
	})
}

// TestRetryDelayBounds pins the backoff shape: doubling from base, ±50%
// jitter, capped at 100×base.
func TestRetryDelayBounds(t *testing.T) {
	const base = time.Millisecond
	for attempt, nominal := range []time.Duration{base, 2 * base, 4 * base, 8 * base} {
		for range 200 {
			if d := retryDelay(base, attempt); d < nominal/2 || d >= nominal*3/2 {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, nominal/2, nominal*3/2)
			}
		}
	}
	for range 200 {
		if d := retryDelay(base, 40); d >= 150*base {
			t.Fatalf("delay %v exceeds the 100×base cap (+50%% jitter)", d)
		}
	}
}
