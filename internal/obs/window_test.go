package obs

import (
	"testing"
	"time"
)

func TestHistWindowOver(t *testing.T) {
	h := &Histogram{scale: 1e-9}
	w := NewHistWindow(h, 16)
	t0 := time.Unix(1000, 0)

	// Tick every second for 10s; observe 2 values per second, one fast
	// (1µs) and — during seconds 5..9 only — one slow (100ms).
	for i := 0; i < 10; i++ {
		h.Observe(1000)
		if i >= 5 {
			h.Observe(100_000_000)
		}
		w.Tick(t0.Add(time.Duration(i+1) * time.Second))
	}

	// Trailing 3s: samples at t=8,9,10 cover observations from seconds
	// 8 and 9 — 2 fast + 2 slow... wait, delta between tick 10 and tick
	// (10-3)=7 covers seconds 7..9: 3 fast + 3 slow.
	d := w.Over(3 * time.Second)
	if d.Count != 6 {
		t.Fatalf("Over(3s).Count = %d, want 6", d.Count)
	}
	if got := d.FractionAbove(1_000_000); got < 0.45 || got > 0.55 {
		t.Fatalf("FractionAbove(1ms) over 3s = %v, want ~0.5", got)
	}

	// Trailing 100s exceeds retention: falls back to the oldest sample
	// (t=1), covering seconds 1..9 = 9 fast + 5 slow.
	d = w.Over(100 * time.Second)
	if d.Count != 14 {
		t.Fatalf("Over(100s).Count = %d, want 14", d.Count)
	}
}

func TestHistWindowEmpty(t *testing.T) {
	h := &Histogram{}
	w := NewHistWindow(h, 4)
	if d := w.Over(time.Second); d.Count != 0 {
		t.Fatalf("Over on empty window = %+v, want empty", d)
	}
	w.Tick(time.Unix(1, 0))
	if d := w.Over(time.Second); d.Count != 0 {
		t.Fatalf("Over with one sample = %+v, want empty", d)
	}
}

func TestFractionAbove(t *testing.T) {
	var h Histogram
	// 90 obs at ~1µs, 10 at ~100ms.
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000_000)
	}
	s := h.Snapshot()
	if got := s.FractionAbove(1_000_000); got < 0.09 || got > 0.11 {
		t.Fatalf("FractionAbove(1ms) = %v, want ~0.1", got)
	}
	if got := s.FractionAbove(1 << 39); got != 0 {
		t.Fatalf("FractionAbove(max) = %v, want 0", got)
	}
	if got := (HistSnapshot{}).FractionAbove(5); got != 0 {
		t.Fatalf("FractionAbove on empty = %v, want 0", got)
	}
}

func TestEventRing(t *testing.T) {
	ResetEvents()
	EnableEvents(false)
	Publish("x", "dropped while off")
	if got := RecentEvents(0); len(got) != 0 {
		t.Fatalf("events recorded while disabled: %v", got)
	}

	EnableEvents(true)
	defer EnableEvents(false)
	defer ResetEvents()

	var hooked []Event
	OnEvent(func(e Event) { hooked = append(hooked, e) })
	defer OnEvent(nil)

	for i := 0; i < eventRingCap+10; i++ {
		Publish("tick", "n", "i", string(rune('a'+i%26)))
	}
	evs := RecentEvents(0)
	if len(evs) != eventRingCap {
		t.Fatalf("retained %d events, want %d", len(evs), eventRingCap)
	}
	if len(hooked) != eventRingCap+10 {
		t.Fatalf("hook saw %d events, want %d", len(hooked), eventRingCap+10)
	}
	if last := evs[len(evs)-1]; last.Kind != "tick" || last.Attrs["i"] == "" {
		t.Fatalf("unexpected last event: %+v", last)
	}
	if got := RecentEvents(3); len(got) != 3 {
		t.Fatalf("RecentEvents(3) returned %d", len(got))
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "Z help.")
	r.Counter("a_total", "A help.", L("k", "1"))
	r.Counter("a_total", "A help.", L("k", "2"))
	r.Duration("lat_seconds", "Latency.")
	fams := r.Families()
	if len(fams) != 3 {
		t.Fatalf("Families() = %d families, want 3", len(fams))
	}
	if fams[0].Name != "a_total" || fams[0].Members != 2 || fams[0].Type != "counter" {
		t.Fatalf("unexpected first family: %+v", fams[0])
	}
	if fams[1].Name != "lat_seconds" || fams[1].Type != "histogram" {
		t.Fatalf("unexpected second family: %+v", fams[1])
	}
}
