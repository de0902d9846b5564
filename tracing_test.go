package distwindow_test

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"distwindow"
)

func feedRows(t *testing.T, tr *distwindow.Tracker, d, sites int, n int64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := int64(1); i <= n; i++ {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		mustObserve(t, tr, rng.Intn(sites), distwindow.Row{T: i, V: v})
	}
}

func TestEnableTracingRecordsChains(t *testing.T) {
	const (
		d     = 6
		sites = 3
	)
	cfg := distwindow.Config{Protocol: distwindow.DA2, D: d, W: 500, Eps: 0.1, Sites: sites, Seed: 1}
	plain, err := distwindow.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TracingEnabled() {
		t.Fatal("tracing should be off by default")
	}
	tr, err := distwindow.New(cfg, distwindow.WithTracing(distwindow.TraceConfig{SampleEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.TracingEnabled() {
		t.Fatal("WithTracing did not enable")
	}

	feedRows(t, tr, d, sites, 2000, 3)
	_ = tr.Sketch()

	if tr.TraceSpans() == 0 {
		t.Fatal("no spans recorded at 1-in-1 sampling")
	}
	js, err := tr.TraceChrome()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	ops := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ops[name] = true
	}
	// The simulation records ingest roots, bucket lifecycle instants,
	// fabric send instants and the query span.
	for _, want := range []string{"ingest", "send", "query"} {
		if !ops[want] {
			t.Fatalf("trace export missing %q events (have %v)", want, ops)
		}
	}
	if tr.Metrics().TraceSpans == 0 {
		t.Fatal("Metrics().TraceSpans not populated")
	}
}

func TestTracingDisabledAccessors(t *testing.T) {
	tr, err := distwindow.New(distwindow.Config{
		Protocol: distwindow.DA2, D: 4, W: 100, Eps: 0.1, Sites: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TraceChrome(); err == nil {
		t.Fatal("TraceChrome should error when tracing is off")
	}
	if tr.TraceSpans() != 0 {
		t.Fatal("TraceSpans should be 0 when tracing is off")
	}
	rec := httptest.NewRecorder()
	tr.TraceHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled TraceHandler status = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	tr.AuditHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/audit", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled AuditHandler status = %d, want 404", rec.Code)
	}
	if _, ok := tr.Audit(); ok {
		t.Fatal("Audit() should report not-ok when auditing is off")
	}
	if m := tr.Metrics(); m.Audit != nil {
		t.Fatal("Metrics().Audit should be nil when auditing is off")
	}
}

func TestEnableAuditShadowsTheWindow(t *testing.T) {
	const (
		d     = 6
		sites = 3
	)
	tr, err := distwindow.New(distwindow.Config{
		Protocol: distwindow.DA2, D: d, W: 500, Eps: 0.1, Sites: sites, Seed: 1,
	}, distwindow.WithAudit(distwindow.AuditConfig{EveryRows: 128}))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AuditEnabled() {
		t.Fatal("WithAudit did not enable")
	}

	feedRows(t, tr, d, sites, 3000, 5)

	am, ok := tr.Audit()
	if !ok {
		t.Fatal("Audit() not ok on a WithAudit tracker")
	}
	if am.Ticks < 3000/128 {
		t.Fatalf("audit ticked %d times, want ≥ %d", am.Ticks, 3000/128)
	}
	if am.Rows != 3000 {
		t.Fatalf("audit shadowed %d rows, want 3000", am.Rows)
	}
	if am.Violations != 0 {
		t.Fatalf("%d ε-violations (max err %v vs ε=%v)", am.Violations, am.MaxErr, am.Eps)
	}
	if am.WordsPerWindow <= 0 {
		t.Fatalf("WordsPerWindow = %v, want > 0", am.WordsPerWindow)
	}
	if n := len(tr.AuditSamples()); int64(n) != am.Ticks {
		t.Fatalf("retained %d samples, want %d", n, am.Ticks)
	}
	if s, ok := tr.AuditTick(); !ok || s.WindowRows == 0 {
		t.Fatalf("forced tick = %+v ok=%v, want a populated sample", s, ok)
	}
	if m := tr.Metrics(); m.Audit == nil || m.Audit.Rows != 3000 {
		t.Fatalf("Metrics().Audit = %+v, want the auditor snapshot", m.Audit)
	}

	// Advancing a full window empties the shadow.
	tr.Advance(3000 + 501)
	if s, _ := tr.AuditTick(); s.WindowRows != 0 {
		t.Fatalf("shadow window holds %d rows after full expiry", s.WindowRows)
	}
}

func TestMetricsHandlerMountsDebugEndpoints(t *testing.T) {
	const (
		d     = 4
		sites = 2
	)
	tr, err := distwindow.New(distwindow.Config{
		Protocol: distwindow.DA2, D: d, W: 200, Eps: 0.2, Sites: sites, Seed: 1,
	}, distwindow.WithTracing(distwindow.TraceConfig{SampleEvery: 4}),
		distwindow.WithAudit(distwindow.AuditConfig{EveryRows: 64}))
	if err != nil {
		t.Fatal(err)
	}
	feedRows(t, tr, d, sites, 500, 9)

	h := tr.MetricsHandler(distwindow.WithPprof())
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	rec := get("/debug/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d, want 200", rec.Code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/trace is not Chrome trace JSON: %v", err)
	}

	rec = get("/debug/audit")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/audit status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("/debug/audit Content-Type = %q, want image/svg+xml", ct)
	}
	if !strings.Contains(rec.Body.String(), "<svg") {
		t.Fatal("/debug/audit did not render an SVG panel")
	}

	rec = get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", rec.Code)
	}
	var m distwindow.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/metrics is not a Metrics document: %v", err)
	}
	if m.Audit == nil || m.Audit.Rows != 500 {
		t.Fatalf("/metrics Audit = %+v, want the live auditor snapshot", m.Audit)
	}
	if m.TraceSpans == 0 {
		t.Fatal("/metrics TraceSpans = 0 with tracing on")
	}

	if rec := get("/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d, want 200", rec.Code)
	}
}
