package obs

import "testing"

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
