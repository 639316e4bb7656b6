package diesel

// Metrics-reference doc test: DESIGN.md carries a generated table of
// every diesel_* metric family the registry knows, with the file that
// consumes each one. This test boots a stack that touches every subsystem
// (so lazily-registered families exist), then fails if
//
//   - a registered family has no consumer: its name must occur literally
//     in a non-test file of a package that reads metrics (internal/slo,
//     internal/loadgen, cmd/dlcmd — never the package that registers it),
//     in bench/metrics.go, in a CI workflow, or in README.md or
//     EXPERIMENTS.md. DESIGN.md does not count: it is where this table
//     lives. A signal nothing reads is deleted, not documented;
//   - a family breaks the naming rules (checkMetricNaming);
//   - the table differs from what the registry renders — a family missing
//     from it, a row for a family that is no longer registered, a stale
//     help string or consumer.
//
// Regenerate every column after adding, changing or removing a family:
//
//	UPDATE_METRICS_DOC=1 go test -run TestMetricsReferenceDoc .

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"diesel/internal/kvstore"
	"diesel/internal/loadgen"
	"diesel/internal/obs"
	"diesel/internal/server"
	"diesel/internal/slo"
	"diesel/internal/wire"
)

const (
	metricsDocFile  = "DESIGN.md"
	metricsDocBegin = "<!-- metrics-reference:begin -->"
	metricsDocEnd   = "<!-- metrics-reference:end -->"
)

// registerAllMetricFamilies drives every subsystem far enough that its
// metric families exist in obs.Default(): a two-job embedded stack with
// an SSD tier, epoch readers with the tail controls on, tenant quotas,
// a bounded fair gate, the SLO engine + watchdog, the scrape-time
// registration hooks the binaries call, and one failed and one retried
// RPC for the families that only exist once something went wrong.
func registerAllMetricFamilies(t *testing.T) {
	t.Helper()
	st, err := loadgen.StartStack(loadgen.StackConfig{
		KVNodes: 1, Servers: 1,
		Files: 32, FileSizeB: 256,
		Clients:       2,
		SSDCacheBytes: 1 << 20,
		TaskNodes:     1, ClientsPerNode: 1, Jobs: 2,
		EpochReaders: 1, EpochHedge: true, EpochReorder: 2,
		EpochDeadline: time.Second,
	})
	if err != nil {
		t.Fatalf("StartStack: %v", err)
	}
	defer st.Close()

	reg := obs.Default()
	obs.RegisterRuntime(reg)
	st.Dep.Server().RegisterMetrics(reg)
	// The tiered store's diesel_tier_*{site="objstore"} series attach
	// inside core.Deploy — no hand-wiring here.
	st.Dep.Server().SetTenantQuota("doc-tenant", server.TenantQuota{QPS: 1000})
	st.Dep.Server().Fair.SetLimit(64) // diesel_job_fair_*: only a bounded gate counts
	registerFailureFamilies(t)

	// The slo package's families: the engine's breach counter and the
	// watchdog's bundle/spool telemetry.
	eng := slo.NewEngine(slo.EngineConfig{
		Registry: reg,
		Objectives: []slo.Objective{
			slo.ReadLatencyObjective(reg, 50*time.Millisecond, 0.01),
			slo.EpochStallObjective(reg, 100*time.Millisecond, 0.01),
			slo.QuotaRejectionObjective(reg, 0.01, "doc-tenant"),
		},
	})
	eng.Evaluate(time.Now())
	wd, err := slo.NewWatchdog(slo.WatchdogConfig{Dir: t.TempDir(), Registry: reg, CPUProfile: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Close()

	ops, err := st.Ops("get=1,direct=1,batch=1,chunk=1,view=1,stat=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.RunEmbedded(context.Background(), loadgen.Config{
		Rate:        400,
		Duration:    400 * time.Millisecond,
		Concurrency: 8,
		Seed:        3,
		Ops:         ops,
	})
	if err != nil {
		t.Fatalf("RunEmbedded: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("exercise run performed no operations")
	}
}

// registerFailureFamilies makes one RPC fail (diesel_wire_errors_total)
// and one idempotent KV read retry (diesel_kv_retries_total): both
// families register on first use.
func registerFailureFamilies(t *testing.T) {
	t.Helper()
	node, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	raw, err := wire.Dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Call("no.such.method", nil); err == nil {
		t.Fatal("unknown method did not fail")
	}
	kv, err := kvstore.DialClusterOpts([]string{node.Addr()},
		kvstore.Options{MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	node.Close()
	if _, err := kv.Get("k"); err == nil {
		t.Fatal("Get against a closed node did not fail")
	}
}

// metricConsumerFiles lists, in the order the "Consumed by" column
// prefers them, the files whose mention of a family makes it consumed:
// code that reads the registry by name, CI, then the operator docs.
func metricConsumerFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{
		"internal/slo/*.go", "internal/loadgen/*.go", "cmd/dlcmd/*.go",
		"bench/metrics.go", ".github/workflows/*.yml",
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(m)
		for _, f := range m {
			if !strings.HasSuffix(f, "_test.go") {
				files = append(files, f)
			}
		}
	}
	return append(files, "EXPERIMENTS.md", "README.md")
}

// registeringPackage is the consumer directory that itself registers the
// family, whose mention of the name therefore proves nothing.
func registeringPackage(family string) string {
	if strings.HasPrefix(family, "diesel_slo_") || strings.HasPrefix(family, "diesel_diag_") {
		return "internal/slo/"
	}
	return ""
}

// metricConsumers maps each family to the first of files that names it
// ("" when none does).
func metricConsumers(t *testing.T, fams []obs.FamilyInfo, files []string) map[string]string {
	t.Helper()
	bodies := make([][]byte, len(files))
	for i, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	out := make(map[string]string, len(fams))
	for _, f := range fams {
		// A whole-word match: diesel_epoch_hedges_total must not be
		// "found" inside diesel_epoch_hedges_total_foo.
		word := regexp.MustCompile(regexp.QuoteMeta(f.Name) + `\b`)
		own := registeringPackage(f.Name)
		for i, path := range files {
			if own != "" && strings.HasPrefix(path, own) {
				continue
			}
			if word.Match(bodies[i]) {
				out[f.Name] = path
				break
			}
		}
	}
	return out
}

// metricLabelNames is the label vocabulary: a new label is spelled like an
// existing one of the same meaning (a cache site is site=, never store= or
// layer=) or is added here on purpose.
var metricLabelNames = map[string]bool{
	"dir": true, "method": true, "objective": true, "op": true,
	"site": true, "source": true, "tenant": true,
}

var metricNameRE = regexp.MustCompile(`^diesel_[a-z]+(_[a-z0-9]+)+$`)

// checkMetricNaming enforces the conventions the families follow: the
// suffix states the type and unit, labels come from one vocabulary.
func checkMetricNaming(t *testing.T, fams []obs.FamilyInfo, metrics []obs.Metric) {
	t.Helper()
	for _, f := range fams {
		bad := func(why string) { t.Errorf("metric family %s (%s): %s", f.Name, f.Type, why) }
		if !metricNameRE.MatchString(f.Name) {
			bad("name is not diesel_<layer>_<what>[_<unit>] in lower snake case")
		}
		total := strings.HasSuffix(f.Name, "_total")
		seconds := strings.HasSuffix(f.Name, "_seconds")
		switch f.Type {
		case "counter":
			if !total {
				bad("a counter's name ends in _total")
			}
		case "histogram":
			// Every histogram is a duration (obs.Registry.Duration).
			if !seconds {
				bad("a time histogram's name ends in _seconds")
			}
		case "gauge":
			if total || seconds {
				bad("a gauge's name does not end in _total or _seconds")
			}
			if strings.Contains(strings.ToLower(f.Help), "bytes") && !strings.HasSuffix(f.Name, "_bytes") {
				bad("a size gauge's name ends in _bytes")
			}
		}
	}
	for _, m := range metrics {
		for name, val := range m.Labels {
			if !metricLabelNames[name] {
				t.Errorf("metric %s: label %q is not in the label vocabulary (metricLabelNames)", m.Name, name)
			}
			if name == "site" && val != "dcache" && val != "objstore" {
				t.Errorf("metric %s: site=%q, want dcache or objstore", m.Name, val)
			}
		}
	}
}

// renderMetricsTable renders the families as the DESIGN.md table body.
func renderMetricsTable(fams []obs.FamilyInfo, consumers map[string]string) string {
	var b strings.Builder
	b.WriteString("| Family | Type | Help | Consumed by |\n|---|---|---|---|\n")
	for _, f := range fams {
		fmt.Fprintf(&b, "| `%s` | %s | %s | `%s` |\n", f.Name, f.Type, f.Help, consumers[f.Name])
	}
	return b.String()
}

// docTableFamilies extracts the family names of the generated table.
func docTableFamilies(table string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		rest, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		name, _, ok := strings.Cut(rest, "`")
		if ok {
			out[name] = true
		}
	}
	return out
}

func TestMetricsReferenceDoc(t *testing.T) {
	registerAllMetricFamilies(t)
	fams := obs.Default().Families()
	if len(fams) < 40 {
		t.Fatalf("only %d families registered — the exercise stack no longer touches every subsystem", len(fams))
	}
	checkMetricNaming(t, fams, obs.Default().Export())

	files := metricConsumerFiles(t)
	consumers := metricConsumers(t, fams, files)
	var unconsumed []string
	for _, f := range fams {
		if consumers[f.Name] == "" {
			unconsumed = append(unconsumed, f.Name)
		}
	}
	if len(unconsumed) > 0 {
		t.Errorf("metric families with no consumer: %v\nnone of %v names them (the registering package does not count).\n"+
			"Give each a reader that already exists, or delete the family and the counter behind it.",
			unconsumed, files)
	}
	if t.Failed() {
		return // never write or accept a table holding a family that fails the rules
	}

	doc, err := os.ReadFile(metricsDocFile)
	if err != nil {
		t.Fatal(err)
	}
	begin := strings.Index(string(doc), metricsDocBegin)
	end := strings.Index(string(doc), metricsDocEnd)
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("%s is missing the %s / %s markers", metricsDocFile, metricsDocBegin, metricsDocEnd)
	}
	want := metricsDocBegin + "\n" + renderMetricsTable(fams, consumers)

	if os.Getenv("UPDATE_METRICS_DOC") != "" {
		updated := string(doc[:begin]) + want + string(doc[end:])
		if err := os.WriteFile(metricsDocFile, []byte(updated), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s metrics reference (%d families)", metricsDocFile, len(fams))
		return
	}

	documented := docTableFamilies(string(doc[begin:end]))
	var missing, stale []string
	for _, f := range fams {
		if !documented[f.Name] {
			missing = append(missing, f.Name)
		}
		delete(documented, f.Name)
	}
	for name := range documented {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("metric families registered but missing from the %s metrics reference: %v", metricsDocFile, missing)
	}
	if len(stale) > 0 {
		t.Errorf("the %s metrics reference names families that are no longer registered: %v", metricsDocFile, stale)
	}
	if !t.Failed() && string(doc[begin:end]) != want {
		t.Errorf("the %s metrics reference has a stale type, help or consumer column", metricsDocFile)
	}
	if t.Failed() {
		t.Log("regenerate with: UPDATE_METRICS_DOC=1 go test -run TestMetricsReferenceDoc .")
	}
}
