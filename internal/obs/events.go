package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Structured event ring. Components publish rare, discrete operational
// events (a circuit breaker tripping, an SLO burning, an admin retune)
// into one bounded process-wide ring; the diagnostic watchdog snapshots
// the ring into every bundle so "what happened just before" survives the
// incident. The ring sits in obs — the one package everything already
// imports — so dcache/epoch/server can publish without importing the SLO
// layer (which imports them back).
//
// Publishing is gated by EnableEvents, as spans are by
// tracing.EnableTracing — the only two gates; metrics are always on. The
// zero value is OFF and Publish is a single atomic load plus branch, so
// call sites on rare paths cost nothing in processes that never enable
// diagnostics.

// Event is one structured operational event.
type Event struct {
	// TimeNS is the event time as UnixNano.
	TimeNS int64 `json:"time_ns"`
	// Kind is a stable machine-readable tag ("breaker-trip",
	// "slo-breach", "admin-retune").
	Kind string `json:"kind"`
	// Msg is a human-readable one-liner.
	Msg string `json:"msg"`
	// Attrs carries optional key=value detail.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// eventRingCap bounds the ring. 256 events comfortably covers the run-up
// to an incident at the publish rates of the gated call sites (breaker
// trips, SLO evaluations) while keeping a bundle's events.json small.
const eventRingCap = 256

var (
	eventsOn  atomic.Bool
	eventHook atomic.Pointer[func(Event)]

	eventMu    sync.Mutex
	eventRing  [eventRingCap]Event
	eventNext  int
	eventCount int
)

// EnableEvents turns the event ring on or off (default off). The
// watchdog enables it when it starts.
func EnableEvents(on bool) { eventsOn.Store(on) }

// OnEvent installs fn as the process-wide event subscriber (nil
// uninstalls). The watchdog uses it to turn discrete events into bundle
// captures. fn runs synchronously inside Publish, so it must be cheap
// and non-blocking — hand anything slow to a goroutine or channel.
func OnEvent(fn func(Event)) {
	if fn == nil {
		eventHook.Store(nil)
		return
	}
	eventHook.Store(&fn)
}

// Publish records an event if the ring is enabled. attrs are flattened
// key, value pairs (an odd trailing key gets an empty value). Safe for
// concurrent use; when the ring is off it is one atomic load.
func Publish(kind, msg string, attrs ...string) {
	if !eventsOn.Load() {
		return
	}
	ev := Event{TimeNS: time.Now().UnixNano(), Kind: kind, Msg: msg}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]string, (len(attrs)+1)/2)
		for i := 0; i < len(attrs); i += 2 {
			v := ""
			if i+1 < len(attrs) {
				v = attrs[i+1]
			}
			ev.Attrs[attrs[i]] = v
		}
	}
	eventMu.Lock()
	eventRing[eventNext] = ev
	eventNext = (eventNext + 1) % eventRingCap
	if eventCount < eventRingCap {
		eventCount++
	}
	eventMu.Unlock()
	if hp := eventHook.Load(); hp != nil {
		(*hp)(ev)
	}
}

// RecentEvents returns up to n most recent events, oldest first.
// n <= 0 returns everything retained.
func RecentEvents(n int) []Event {
	eventMu.Lock()
	defer eventMu.Unlock()
	if n <= 0 || n > eventCount {
		n = eventCount
	}
	out := make([]Event, 0, n)
	start := eventNext - n
	if start < 0 {
		start += eventRingCap
	}
	for i := 0; i < n; i++ {
		out = append(out, eventRing[(start+i)%eventRingCap])
	}
	return out
}

// ResetEvents clears the ring (tests only).
func ResetEvents() {
	eventMu.Lock()
	eventNext, eventCount = 0, 0
	eventMu.Unlock()
}
