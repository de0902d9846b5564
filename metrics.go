package distwindow

import (
	"io"
	"net/http"

	"distwindow/internal/core"
	"distwindow/internal/obs"
	"distwindow/internal/obs/telemetry"
	"distwindow/internal/protocol"
)

// The observability vocabulary is defined in the internal obs package and
// re-exported here so callers never import internals. A Sink receives one
// typed Event per internal occurrence; install it with WithSink.
// The default (no sink) costs one nil-check per hook site.
type (
	// Sink receives internal events. Implementations must be fast and must
	// not call back into the tracker; they may be invoked from the ingest
	// hot path.
	Sink = obs.Sink
	// Event is one internal occurrence; see the Ev* constants for kinds.
	Event = obs.Event
	// EventKind enumerates the event types.
	EventKind = obs.EventKind
	// FuncSink adapts a function to the Sink interface.
	FuncSink = obs.FuncSink
	// CountingSink counts events by kind, atomically; useful in tests and
	// as a cheap always-on tally.
	CountingSink = obs.CountingSink
	// MultiSink fans events out to several sinks.
	MultiSink = obs.MultiSink
	// LatencySnapshot is a point-in-time copy of a latency histogram.
	LatencySnapshot = obs.HistSnapshot
	// SiteStats is one site's slice of the communication counters.
	SiteStats = protocol.SiteStats
)

// Event kinds observable through a Sink.
const (
	// EvMsgSent is a site→coordinator message (Words carries its size).
	EvMsgSent = obs.EvMsgSent
	// EvMsgReceived is a coordinator→site message.
	EvMsgReceived = obs.EvMsgReceived
	// EvBucketCreated is a new histogram bucket at a site.
	EvBucketCreated = obs.EvBucketCreated
	// EvBucketMerged is a compaction pass that absorbed N buckets.
	EvBucketMerged = obs.EvBucketMerged
	// EvBucketExpired is N buckets sliding out of the window.
	EvBucketExpired = obs.EvBucketExpired
	// EvSketchQuery is a coordinator sketch query (Sketch/SketchGram).
	EvSketchQuery = obs.EvSketchQuery
	// EvSkewDrop is a row dropped for arriving too late.
	EvSkewDrop = obs.EvSkewDrop
	// EvThresholdRenegotiation is a coordinator broadcast (sampling-family
	// threshold updates).
	EvThresholdRenegotiation = obs.EvThresholdRenegotiation
)

// Metrics is a point-in-time snapshot of a Tracker's observable state:
// ingest counters, the sampled update-latency histogram, and the
// communication counters (globally and per site). The communication
// figures are read from the same atomic counters Stats() reports — the
// paper's word accounting and the metrics layer cannot disagree.
type Metrics struct {
	// Protocol is the tracker's display name.
	Protocol string
	// Rows counts rows delivered into the protocol.
	Rows int64
	// StaleDrops counts rows rejected for out-of-order timestamps
	// (without MaxSkew).
	StaleDrops int64
	// SkewDropped counts rows dropped by the skew machinery (beyond the
	// horizon, or released too late to deliver in order).
	SkewDropped int64
	// Queries counts coordinator sketch queries.
	Queries int64
	// LiveBuckets is the latest sampled total histogram bucket count
	// across sites (0 for protocols without histograms).
	LiveBuckets int64
	// UpdateLatency is the sampled per-row protocol update latency (about
	// one row in 16 is timed).
	UpdateLatency LatencySnapshot
	// Net is the communication/space counter snapshot, identical to
	// Stats().
	Net Stats
	// Sites is the per-site communication breakdown, indexed by site.
	Sites []SiteStats
	// Audit is the live ε-error auditor's snapshot; nil unless the
	// tracker was built WithAudit.
	Audit *AuditMetrics `json:",omitempty"`
	// TraceSpans is the number of causal-trace spans recorded so far
	// (0 unless the tracker was built WithTracing).
	TraceSpans int64 `json:",omitempty"`
	// SnapshotVersion is the latest published snapshot's version; 0 when
	// no snapshot has been published (see WithSnapshots).
	SnapshotVersion uint64 `json:",omitempty"`
	// SnapshotPublishes counts snapshot publications.
	SnapshotPublishes int64 `json:",omitempty"`
	// SnapshotLagRows is the number of rows delivered since the latest
	// snapshot was taken — the read path's staleness in rows (approximate
	// in parallel mode, where rows are counted at the sites).
	SnapshotLagRows int64 `json:",omitempty"`
}

// Metrics returns a snapshot of the tracker's counters. It is safe to call
// from another goroutine while the tracker ingests.
func (t *Tracker) Metrics() Metrics {
	m := Metrics{
		Protocol:      t.inner.Name(),
		Rows:          t.rows.Load(),
		StaleDrops:    t.staleDrops.Load(),
		SkewDropped:   t.skewDropped.Load(),
		Queries:       t.queries.Load(),
		LiveBuckets:   t.liveBuckets.Load(),
		UpdateLatency: t.updateLat.Snapshot(),
		Net:           t.net.Stats(),
		Sites:         t.net.PerSiteStats(),
		TraceSpans:    t.TraceSpans(),
	}
	if t.aud != nil {
		am := t.aud.Metrics()
		m.Audit = &am
	}
	if s := t.snap.Load(); s != nil {
		m.SnapshotVersion = s.version
		m.SnapshotPublishes = t.snapPubs.Load()
		if lag := m.Rows - s.rows; lag > 0 {
			m.SnapshotLagRows = lag
		}
	}
	return m
}

// setSink installs the WithSink event sink on the tracker and every layer
// under it. The sink fields are read without synchronization on the hot
// path, so it runs at construction, before any row can arrive.
func (t *Tracker) setSink(s Sink) {
	t.sink = s
	t.net.SetSink(s)
	if ss, ok := t.inner.(core.SinkSetter); ok {
		ss.SetSink(s)
	}
}

// MetricsHandler returns an http.Handler serving the tracker's snapshot:
// GET /metrics (JSON Metrics by default; the Prometheus text exposition
// when the request's Accept header prefers text/plain or ?format=prom
// asks for it), GET /healthz, and expvar under /debug/vars.
// When tracing or auditing is enabled (WithTracing, WithAudit) it also
// mounts /debug/trace (Chrome trace-event JSON) and /debug/audit (SVG
// error panel); further endpoints can be added with options (WithPprof,
// WithHandler). Mount it on any mux; the handler snapshots atomically, so
// it is safe while the tracker ingests on another goroutine.
func (t *Tracker) MetricsHandler(opts ...MuxOption) http.Handler {
	all := make([]obs.MuxOption, 0, len(opts)+3)
	all = append(all, obs.WithPrometheus(t.WritePrometheusTo))
	if t.traceRing != nil {
		all = append(all, obs.WithHandler("/debug/trace", t.traceRing.Handler()))
	}
	if t.aud != nil {
		all = append(all, obs.WithHandler("/debug/audit", t.aud.Handler()))
	}
	all = append(all, opts...)
	return obs.Mux(
		func() (any, bool) { return t.Metrics(), true },
		func() bool { return true },
		all...,
	)
}

// WritePrometheusTo writes the tracker's metrics in the Prometheus text
// exposition format (text/plain; version=0.0.4) — the format
// MetricsHandler serves to scrapers via content negotiation.
func (t *Tracker) WritePrometheusTo(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	m := t.Metrics()
	ls := []obs.Label{{Name: "protocol", Value: m.Protocol}}
	pw.Counter("distwindow_rows_total", "Rows delivered into the protocol.", ls, float64(m.Rows))
	pw.Counter("distwindow_stale_drops_total", "Rows rejected for out-of-order timestamps.", ls, float64(m.StaleDrops))
	pw.Counter("distwindow_skew_drops_total", "Rows dropped by the skew machinery.", ls, float64(m.SkewDropped))
	pw.Counter("distwindow_queries_total", "Coordinator sketch queries.", ls, float64(m.Queries))
	pw.Gauge("distwindow_live_buckets", "Sampled total histogram bucket count across sites.", ls, float64(m.LiveBuckets))
	pw.Counter("distwindow_words_up_total", "Words sent from sites to the coordinator.", ls, float64(m.Net.WordsUp))
	pw.Counter("distwindow_words_down_total", "Words sent from the coordinator to sites.", ls, float64(m.Net.WordsDown))
	pw.Gauge("distwindow_max_site_words", "Maximum words of state held by any site.", ls, float64(m.Net.MaxSiteWords))
	pw.Histogram("distwindow_update_latency_seconds", "Sampled per-row update latency.", ls, m.UpdateLatency)
	if m.SnapshotVersion > 0 {
		pw.Gauge("distwindow_snapshot_version", "Latest published sketch snapshot version.", ls, float64(m.SnapshotVersion))
		pw.Counter("distwindow_snapshot_publishes_total", "Sketch snapshot publications.", ls, float64(m.SnapshotPublishes))
		pw.Gauge("distwindow_snapshot_lag_rows", "Rows delivered since the latest snapshot.", ls, float64(m.SnapshotLagRows))
	}
	if m.Audit != nil {
		pw.Gauge("distwindow_epsilon", "Configured error budget ε.", ls, m.Audit.Eps)
		pw.Gauge("distwindow_epsilon_error", "Latest audited covariance error.", ls, m.Audit.LastErr)
		pw.Gauge("distwindow_epsilon_headroom", "ε minus the latest audited error.", ls, m.Audit.Headroom)
		pw.Gauge("distwindow_words_per_window", "Latest communication-per-window figure.", ls, m.Audit.WordsPerWindow)
		pw.Counter("distwindow_epsilon_violations_total", "Audit ticks whose error exceeded ε.", ls, float64(m.Audit.Violations))
	}
	return pw.Err()
}

// TelemetryFrame snapshots the tracker as a fleet telemetry frame for
// site and stream — the collect seam for telemetry publishers in
// single-binary deployments (sketchd -serve) and for the coordinator
// process publishing its own local series into the fleet it aggregates.
func (t *Tracker) TelemetryFrame(site int, stream string) telemetry.Frame {
	m := t.Metrics()
	fr := telemetry.Frame{
		Site:      site,
		Stream:    stream,
		Proto:     m.Protocol,
		Rows:      m.Rows,
		Msgs:      m.Net.MsgsUp,
		Words:     m.Net.WordsUp,
		UpdateLat: m.UpdateLatency,
	}
	if m.Audit != nil {
		fr.Eps = m.Audit.Eps
		fr.Err = m.Audit.LastErr
		fr.Headroom = m.Audit.Headroom
		fr.WordsPerWindow = m.Audit.WordsPerWindow
		fr.Violations = m.Audit.Violations
	}
	return fr
}

// PublishExpvar publishes the tracker's Metrics snapshot as an expvar
// variable with the given name (served at /debug/vars). It reports false
// when the name is already taken — expvar names are process-global, so
// republishing under a fixed name after rebuilding a tracker needs a fresh
// name or a process restart.
func (t *Tracker) PublishExpvar(name string) bool {
	return obs.PublishExpvar(name, func() any { return t.Metrics() })
}
