package tracing

import (
	"sort"
	"sync"
	"time"
)

// Exemplars join metrics to traces: when an instrumented hot path
// observes a latency at or above the slow threshold while a sampled span
// is live, it records (metric name → trace ID, duration). A histogram can
// then answer not just "p99 is 40ms" but "here is a trace ID of a 40ms
// request" — the Prometheus exemplar idea, without the dependency.
//
// The table is bounded two ways: at most maxExemplarMetrics metric names,
// and at most exemplarsPerMetric exemplars per name (the slowest ones
// win, newest breaking ties).

const (
	maxExemplarMetrics = 64
	exemplarsPerMetric = 4
)

// ExemplarData is one slow observation attributed to a trace.
type ExemplarData struct {
	TraceID uint64 `json:"traceID,string"`
	DurNS   int64  `json:"durNS"`
	AtNS    int64  `json:"atNS"`
}

var (
	exMu sync.Mutex
	exs  = map[string][]ExemplarData{} // sorted fastest-first per metric
)

// ObserveSlow records an exemplar for metric if d is at or above the slow
// threshold and s belongs to a sampled trace. Cheap to call on hot paths:
// with tracing off or s nil it is two branches.
func ObserveSlow(s *Span, metric string, d time.Duration) {
	if s == nil || int64(d) < slowNS.Load() {
		return
	}
	e := ExemplarData{TraceID: s.tr.traceID, DurNS: int64(d), AtNS: time.Now().UnixNano()}
	exMu.Lock()
	defer exMu.Unlock()
	list := exs[metric]
	if list == nil && len(exs) >= maxExemplarMetrics {
		return
	}
	i := sort.Search(len(list), func(i int) bool { return list[i].DurNS > e.DurNS })
	if len(list) < exemplarsPerMetric {
		list = append(list, ExemplarData{})
		copy(list[i+1:], list[i:])
		list[i] = e
	} else if i > 0 {
		copy(list[:i], list[1:i])
		list[i-1] = e
	} else {
		return
	}
	exs[metric] = list
}

// exemplars returns a copy of the exemplar table, slowest first per
// metric.
func exemplars() map[string][]ExemplarData {
	exMu.Lock()
	defer exMu.Unlock()
	out := make(map[string][]ExemplarData, len(exs))
	for name, list := range exs {
		rev := make([]ExemplarData, len(list))
		for i, e := range list {
			rev[len(list)-1-i] = e
		}
		out[name] = rev
	}
	return out
}

func resetExemplars() {
	exMu.Lock()
	exs = map[string][]ExemplarData{}
	exMu.Unlock()
}
