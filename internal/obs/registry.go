package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to a metric. Metrics with the
// same family name and different labels render as one Prometheus family.
type Label struct{ Name, Value string }

// L builds a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindFuncGauge
	kindFuncCounter
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindFuncCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// entry is one registered metric instance (a family member).
type entry struct {
	name   string
	labels []Label
	kind   metricKind

	c *Counter
	f *FuncGauge
	h *Histogram
}

// family groups entries sharing a metric name; HELP/TYPE render once per
// family.
type family struct {
	name    string
	help    string
	kind    metricKind
	entries []*entry
}

// Registry holds named, labeled metrics and renders them in the
// Prometheus text exposition format. All methods are safe for concurrent
// use. Registration is idempotent: asking for an existing name+labels
// returns the existing instance, so components that are constructed many
// times per process (servers in tests, pooled clients) share one metric.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order, for stable output
	byName   map[string]*family
	byKey    map[string]*entry // name + sorted labels → instance
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]*family),
		byKey:  make(map[string]*entry),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every internal package
// registers into; the cmd binaries serve it over HTTP.
func Default() *Registry { return defaultRegistry }

// key builds the identity of a metric instance. Labels are sorted so the
// identity is order-independent.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// register finds or creates the entry for name+labels, enforcing that one
// family holds one metric kind. A kind mismatch is a programming error
// and panics, like prometheus/client_golang's MustRegister.
func (r *Registry) register(name, help string, kind metricKind, scale float64, labels []Label) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if e, ok := r.byKey[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s",
				name, kind.promType(), e.kind.promType()))
		}
		return e
	}
	fam, ok := r.byName[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric family %q holds %s, cannot add %s",
			name, fam.kind.promType(), kind.promType()))
	}
	e := &entry{name: name, labels: append([]Label(nil), labels...), kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindFuncGauge, kindFuncCounter:
		e.f = &FuncGauge{}
	case kindHistogram:
		e.h = &Histogram{scale: scale}
	}
	fam.entries = append(fam.entries, e)
	r.byKey[k] = e
	return e
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, 0, labels).c
}

// Func registers fn as a gauge read at scrape time. Re-registering the
// same name+labels replaces the callback (last writer wins), so a
// re-created component takes over its gauge instead of leaving a stale
// closure behind.
func (r *Registry) Func(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindFuncGauge, 0, labels).f.set(fn)
}

// FuncCounter registers fn as a counter read at scrape time — for
// monotonic values another component already maintains (a tier store's
// demotions and spill hits). fn must be monotonically non-decreasing.
func (r *Registry) FuncCounter(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindFuncCounter, 0, labels).f.set(fn)
}

// histogram returns a histogram over raw uint64 values whose rendered
// unit is raw*scale.
func (r *Registry) histogram(name, help string, scale float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, scale, labels).h
}

// Duration returns a histogram observed in nanoseconds and rendered in
// seconds — the shape of every `*_seconds` latency metric, and the only
// histogram the registry hands out.
func (r *Registry) Duration(name, help string, labels ...Label) *Histogram {
	return r.histogram(name, help, 1e-9, labels...)
}

// FamilyInfo describes one registered metric family — the documentation
// surface of the registry (the DESIGN.md metrics-reference test diffs
// this against the doc table).
type FamilyInfo struct {
	Name    string `json:"name"`
	Help    string `json:"help"`
	Type    string `json:"type"`
	Members int    `json:"members"`
}

// Families lists every registered family sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, fam := range r.families {
		out = append(out, FamilyInfo{
			Name:    fam.name,
			Help:    fam.help,
			Type:    fam.kind.promType(),
			Members: len(fam.entries),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Metric is one exported sample, the JSON-friendly form of a registry
// entry (the load harness reads counter deltas from it, the watchdog
// writes it into every diagnostic bundle).
type Metric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter/gauge readings.
	Value float64 `json:"value"`
	// Histogram-only fields; Sum, Mean and the quantiles are in rendered
	// units.
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	P999  float64 `json:"p999,omitempty"`
}

// labelKey renders a metric's labels as a canonical sort key.
func (m Metric) labelKey() string {
	if len(m.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m.Labels[k])
		b.WriteByte(',')
	}
	return b.String()
}

// snapshotFamilies copies the family list and each family's entry slice
// under the lock, so renderers can walk the structure — and, crucially,
// run FuncGauge callbacks — without holding it. A callback that performs
// I/O (diesel_server_kv_keys does a KV round trip) may lazily register
// metrics on this registry along the way; evaluating it under the lock
// would deadlock. Entry values are read via atomics afterwards, so the
// result is a consistent-enough scrape.
func (r *Registry) snapshotFamilies() []family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]family, len(r.families))
	for i, fam := range r.families {
		out[i] = *fam
		out[i].entries = append([]*entry(nil), fam.entries...)
	}
	return out
}

// Export snapshots every registered metric, sorted by name and labels so
// successive snapshots diff cleanly.
func (r *Registry) Export() []Metric {
	var out []Metric
	for _, fam := range r.snapshotFamilies() {
		for _, e := range fam.entries {
			m := Metric{Name: e.name, Type: e.kind.promType()}
			if len(e.labels) > 0 {
				m.Labels = make(map[string]string, len(e.labels))
				for _, l := range e.labels {
					m.Labels[l.Name] = l.Value
				}
			}
			switch e.kind {
			case kindCounter:
				m.Value = float64(e.c.Load())
			case kindFuncGauge, kindFuncCounter:
				m.Value = e.f.Load()
			case kindHistogram:
				s := e.h.Snapshot()
				scale := e.h.scale
				m.Count = s.Count
				m.Sum = float64(s.Sum) * scale
				if s.Count > 0 {
					m.Mean = m.Sum / float64(s.Count)
				}
				m.P50 = s.Quantile(0.50) * scale
				m.P90 = s.Quantile(0.90) * scale
				m.P95 = s.Quantile(0.95) * scale
				m.P99 = s.Quantile(0.99) * scale
				m.P999 = s.Quantile(0.999) * scale
			}
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].labelKey() < out[j].labelKey()
	})
	return out
}
