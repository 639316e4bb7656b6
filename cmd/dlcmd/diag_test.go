package main

import (
	"strings"
	"testing"

	"diesel/internal/slo"
)

// TestVerifyBundles: besides metrics, a slow trace and profiles, a
// collection holding slo-breach bundles must show the breach in one of
// their manifests — a breach bundle that records its own objective as
// healthy was captured before the engine stored the evaluation.
func TestVerifyBundles(t *testing.T) {
	bundle := func(reason string, status ...slo.ObjectiveStatus) *diagBundle {
		return &diagBundle{
			source:   "spool",
			manifest: slo.Manifest{ID: "bundle-1-001-" + reason, Reason: reason, SLO: status},
			files: map[string][]byte{
				"metrics.json":          []byte(`[{"name":"x_total","type":"counter","value":1}]`),
				"traces.json":           []byte(`{"slowest":[{}]}`),
				"pprof/goroutine.pb.gz": {1},
				"pprof/heap.pb.gz":      {1},
				"pprof/cpu.pb.gz":       {1},
			},
		}
	}
	healthy := slo.ObjectiveStatus{Name: "read-p99", Budget: 0.001}
	breached := healthy
	breached.Breached, breached.FastBurn, breached.SlowBurn = true, 40, 12

	for _, c := range []struct {
		name    string
		bundles []*diagBundle
		wantErr string
	}{
		{"manual capture, no engine", []*diagBundle{bundle("manual")}, ""},
		{"breach shown", []*diagBundle{bundle("slo-breach", healthy), bundle("slo-breach", breached)}, ""},
		{"breach not shown", []*diagBundle{bundle("slo-breach", healthy), bundle("manual", breached)}, "breached objective"},
		{"breach bundle without status", []*diagBundle{bundle("slo-breach")}, "breached objective"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := verifyBundles(c.bundles)
			if c.wantErr == "" && err != nil {
				t.Fatalf("verifyBundles: %v", err)
			}
			if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
				t.Fatalf("verifyBundles = %v, want an error naming %q", err, c.wantErr)
			}
		})
	}
}
