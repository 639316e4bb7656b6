package tracing

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTracing flips the gate on for one test and restores a clean slate.
func withTracing(t *testing.T) {
	t.Helper()
	Reset()
	EnableTracing(true)
	SetSampleRate(1)
	SetSlowThreshold(20 * time.Millisecond)
	t.Cleanup(func() {
		EnableTracing(false)
		SetSampleRate(1)
		SetSlowThreshold(20 * time.Millisecond)
		Reset()
	})
}

func TestDisabledIsNilAndFree(t *testing.T) {
	Reset()
	EnableTracing(false)
	ctx, s := StartSpan(context.Background(), "root")
	if s != nil {
		t.Fatal("disabled StartSpan must return nil span")
	}
	if ctx != context.Background() {
		t.Fatal("disabled StartSpan must not derive a new context")
	}
	// all nil-span methods must be safe no-ops
	s.SetAttr("k", "v")
	s.SetError(errors.New("x"))
	s.End()
	if s.TraceID() != 0 || s.SpanID() != 0 || s.Duration() != 0 {
		t.Fatal("nil span accessors must return zero")
	}
	if got := len(Recent(0)); got != 0 {
		t.Fatalf("collected %d traces while disabled", got)
	}
}

func TestSpanTreeParenting(t *testing.T) {
	withTracing(t)
	ctx, root := StartSpan(context.Background(), "root")
	ctx2, child := StartSpan(ctx, "child")
	_, grand := StartSpan(ctx2, "grandchild")
	grand.SetAttr("files", "3")
	grand.End()
	child.End()
	root.SetError(errors.New("boom"))
	root.End()

	traces := Recent(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.Root != "root" || !td.Err || len(td.Spans) != 3 {
		t.Fatalf("bad trace: %+v", td)
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		if s.TraceID != td.TraceID {
			t.Fatalf("span %s has trace %x, want %x", s.Name, s.TraceID, td.TraceID)
		}
		byName[s.Name] = s
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Fatal("child not parented to root")
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Fatal("grandchild not parented to child")
	}
	if byName["root"].ParentID != 0 {
		t.Fatal("root must have no parent")
	}
	if got := byName["grandchild"].Attrs; len(got) != 1 || got[0].Key != "files" || got[0].Value != "3" {
		t.Fatalf("attrs not recorded: %v", got)
	}
}

func TestSampleRateZeroNeverRecords(t *testing.T) {
	withTracing(t)
	SetSampleRate(0)
	ctx, s := StartSpan(context.Background(), "root")
	if s != nil {
		t.Fatal("rate-0 root must be nil")
	}
	// downstream must not re-roll and create an orphan root
	for i := 0; i < 100; i++ {
		ctx2, s2 := StartSpan(ctx, "inner")
		if s2 != nil {
			t.Fatal("unsampled ctx re-rolled a root")
		}
		ctx = ctx2
	}
	if CollectedTotal() != 0 {
		t.Fatal("unsampled trace was collected")
	}
}

func TestRemoteRootInheritsIDs(t *testing.T) {
	withTracing(t)
	SetSampleRate(0) // remote roots follow the caller's decision, not the local rate
	ctx, s := StartRemote(context.Background(), "srv: dsl.get", 0xABCD, 0x1234)
	if s == nil {
		t.Fatal("remote root must record regardless of local sample rate")
	}
	if s.TraceID() != 0xABCD {
		t.Fatalf("trace ID %x, want abcd", s.TraceID())
	}
	_, child := StartSpan(ctx, "kv.mget")
	child.End()
	s.End()
	tds := ByID(0xABCD)
	if len(tds) != 1 {
		t.Fatalf("ByID found %d traces, want 1", len(tds))
	}
	if got := tds[0].Spans[0].ParentID; got != 0x1234 {
		t.Fatalf("remote root parent %x, want 1234", got)
	}
	if _, s := StartRemote(ctx, "x", 0, 0); s != nil {
		t.Fatal("zero trace ID must not start a remote root")
	}
}

func TestSlowRetentionOutlivesRing(t *testing.T) {
	withTracing(t)
	SetSlowThreshold(0) // every trace qualifies as slow
	_, slow := StartSpan(context.Background(), "the-slow-one")
	time.Sleep(2 * time.Millisecond)
	slow.End()
	slowID := slow.TraceID()
	SetSlowThreshold(time.Hour) // nothing after this qualifies
	for i := 0; i < recentCap+8; i++ {
		_, s := StartSpan(context.Background(), "churn")
		s.End()
	}
	for _, td := range Recent(0) {
		if td.TraceID == slowID {
			t.Fatal("slow trace should have been evicted from the recent ring")
		}
	}
	got := Slowest(0)
	if len(got) != 1 || got[0].TraceID != slowID {
		t.Fatalf("slow store lost the slow trace: %v", got)
	}
	if len(ByID(slowID)) != 1 {
		t.Fatal("ByID should still find the slow trace")
	}
}

func TestSlowStoreKeepsSlowestWhenFull(t *testing.T) {
	withTracing(t)
	SetSlowThreshold(0)
	for i := 0; i < slowCap+16; i++ {
		_, s := StartSpan(context.Background(), "r")
		s.End()
	}
	c := &defaultCollector
	c.mu.Lock()
	n := len(c.slow)
	sorted := true
	for i := 1; i < n; i++ {
		if c.slow[i-1].DurNS > c.slow[i].DurNS {
			sorted = false
		}
	}
	c.mu.Unlock()
	if n != slowCap {
		t.Fatalf("slow store has %d entries, want %d", n, slowCap)
	}
	if !sorted {
		t.Fatal("slow store not sorted fastest-first")
	}
}

func TestSpanCap(t *testing.T) {
	withTracing(t)
	ctx, root := StartSpan(context.Background(), "root")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := StartSpan(ctx, "c")
		s.End()
	}
	root.End()
	td := Recent(1)[0]
	if len(td.Spans) != maxSpansPerTrace {
		t.Fatalf("got %d spans, want cap %d", len(td.Spans), maxSpansPerTrace)
	}
	if td.Dropped != 11 {
		t.Fatalf("dropped %d, want 11", td.Dropped)
	}
}

func TestExemplars(t *testing.T) {
	withTracing(t)
	SetSlowThreshold(time.Millisecond)
	_, s := StartSpan(context.Background(), "root")
	ObserveSlow(s, "diesel_x_seconds", 500*time.Microsecond) // below threshold
	ObserveSlow(nil, "diesel_x_seconds", time.Hour)          // nil span
	if len(exemplars()) != 0 {
		t.Fatal("sub-threshold or nil-span observations must not record")
	}
	for i := 1; i <= exemplarsPerMetric+3; i++ {
		ObserveSlow(s, "diesel_x_seconds", time.Duration(i)*time.Millisecond)
	}
	s.End()
	got := exemplars()["diesel_x_seconds"]
	if len(got) != exemplarsPerMetric {
		t.Fatalf("kept %d exemplars, want %d", len(got), exemplarsPerMetric)
	}
	if got[0].DurNS != int64((exemplarsPerMetric+3)*int(time.Millisecond)) {
		t.Fatalf("slowest-first order broken: %v", got)
	}
	if got[0].TraceID != s.TraceID() {
		t.Fatal("exemplar lost its trace ID")
	}
}

func TestHandlerJSONAndText(t *testing.T) {
	withTracing(t)
	SetProcess("test-proc")
	t.Cleanup(func() { SetProcess(defaultProc) })
	ctx, root := StartSpan(context.Background(), "client.get")
	_, child := StartSpan(ctx, "wire.call")
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=json", nil))
	body := rec.Body.String()
	for _, want := range []string{`"process": "test-proc"`, `"client.get"`, `"wire.call"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("JSON dump missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	txt := rec.Body.String()
	if !strings.Contains(txt, "client.get") || !strings.Contains(txt, "· wire.call") {
		t.Fatalf("text tree missing spans or indentation:\n%s", txt)
	}

	id := FormatID(root.TraceID())
	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+id, nil))
	if !strings.Contains(rec.Body.String(), "client.get") {
		t.Fatalf("id lookup failed for %s:\n%s", id, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad id must 400, got %d", rec.Code)
	}
}

func TestParseFormatIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xABCDEF, ^uint64(0)} {
		got, err := parseID(FormatID(id))
		if err != nil || got != id {
			t.Fatalf("round trip %x -> %v, %v", id, got, err)
		}
	}
	if got, err := parseID("0xff"); err != nil || got != 255 {
		t.Fatalf("0x prefix: %v %v", got, err)
	}
}

func TestConcurrentSpansRace(t *testing.T) {
	withTracing(t)
	ctx, root := StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, s := StartSpan(ctx, "worker")
				s.SetAttr("j", "x")
				ObserveSlow(s, "m", time.Hour)
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(Recent(1)[0].Spans); got != 401 {
		t.Fatalf("got %d spans, want 401", got)
	}
}

func BenchmarkStartSpanDisabled(b *testing.B) {
	EnableTracing(false)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "bench")
		s.End()
	}
}

func BenchmarkStartSpanEnabled(b *testing.B) {
	Reset()
	EnableTracing(true)
	SetSampleRate(1)
	b.Cleanup(func() { EnableTracing(false); Reset() })
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, s := StartSpan(ctx, "bench")
		s.End()
	}
}
