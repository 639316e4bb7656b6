package dcache

import (
	"bytes"
	"context"
	"testing"

	"diesel/internal/obs"
)

// familyValue reads one diesel_dcache_* series off the default registry;
// source selects a member of diesel_dcache_reads_total ("" for the
// unlabelled families).
func familyValue(name, source string) float64 {
	for _, m := range obs.Default().Export() {
		if m.Name == name && m.Labels["source"] == source {
			return m.Value
		}
	}
	return -1
}

// familyValues reads every series backed by a Stats field, parallel to
// statFamilies.
func familyValues() []float64 {
	out := make([]float64, len(statFamilies))
	for i, f := range statFamilies {
		source := ""
		if len(f.labels) > 0 {
			source = f.labels[0].Value
		}
		out[i] = familyValue(f.name, source)
	}
	return out
}

// TestFamiliesSumPeerStats: each counter family moves by exactly the sum
// of the per-peer Stats field it is built from — every event is counted
// once, in its peer — and a closing peer takes nothing back with it.
func TestFamiliesSumPeerStats(t *testing.T) {
	// ≈ 60 chunks, 30 of them remote to rank 0: more than its pulled buffer
	// holds, so reads after the close reach the dead master.
	f := newFixture(t, 1200, 200, []string{"a", "b"}, OnDemand, nil)
	base := familyValues()
	readAll := func() {
		t.Helper()
		for name, want := range f.files {
			got, err := f.cls[0].DefaultDataset().Get(context.Background(), name)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get(%q): %v", name, err)
			}
		}
	}
	readAll() // local hits, peer reads, chunk loads on both masters

	beforeClose := familyValues()
	f.peers[1].Close()
	afterClose := familyValues()
	for i, fam := range statFamilies {
		if afterClose[i] < beforeClose[i] {
			t.Errorf("%s%v fell from %v to %v when a peer closed", fam.name, fam.labels, beforeClose[i], afterClose[i])
		}
	}
	readAll() // the closed master's chunks: breaker trips, server fallback

	got := familyValues()
	for i, fam := range statFamilies {
		var sum uint64
		for _, p := range f.peers {
			sum += fam.field(&p.Stats).Load()
		}
		if delta := got[i] - base[i]; delta != float64(sum) {
			t.Errorf("%s%v moved by %v, the peers counted %d", fam.name, fam.labels, delta, sum)
		}
	}
	if f.peers[0].Stats.ServerFallback.Load() == 0 || f.peers[0].Stats.MasterDeaths.Load() == 0 {
		t.Fatal("the closed master caused no fallback and no breaker trip: the test exercised less than it claims")
	}
}
