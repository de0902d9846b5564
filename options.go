package distwindow

import "distwindow/internal/core"

// options collects the construction-time settings applied by New.
type options struct {
	parallel  bool
	workers   int
	ringSize  int
	sink      Sink
	haveSink  bool
	tracing   *TraceConfig
	audit     *AuditConfig
	snapshots bool
	snapEvery int
	// pools shares workspace/mEH storage across trackers; set only by the
	// Registry (withPools) — sharing is an ownership contract the registry
	// manages, not something callers opt into per tracker.
	pools core.Pools
}

// buildOptions folds an option list into its settings struct.
func buildOptions(opts []Option) *options {
	o := &options{}
	for _, fn := range opts {
		if fn != nil {
			fn(o)
		}
	}
	return o
}

// withPools attaches the registry's shared storage pools. Unexported: the
// Registry owns pool lifecycle (Evict donates a tracker's storage back),
// and a pool shared wider than its owner could reuse buffers while a
// released tracker still runs.
func withPools(p core.Pools) Option {
	return func(o *options) { o.pools = p }
}

// Option configures a Tracker at construction. Options are applied by New
// in the order given; later options override earlier ones. Installing
// observability through options (WithSink, WithTracing, WithAudit) is
// preferred over the post-hoc setters because the tracker is fully wired
// before the first row arrives — there is no window in which traffic goes
// unobserved, and no unsynchronized field write after ingestion may have
// started.
type Option func(*options)

// WithParallel runs ingestion through the per-site pipeline: each site's
// local work (skew reordering, histogram upkeep, sketch updates) runs on a
// worker goroutine, and a single coordinator goroutine applies the
// resulting site→coordinator updates in global (T, site) order, so the
// coordinator state — and therefore Sketch — is bit-for-bit identical to
// the sequential path's.
//
// workers is the number of site-work goroutines (≤0 means GOMAXPROCS;
// capped at Sites). Only the one-way deterministic protocols (DA1, DA2,
// DA2C, Decay) support the pipeline; New fails with ErrParallelUnsupported
// for the sampling family, and when combined with WithTracing or
// WithAudit, whose instrumentation assumes the sequential path.
//
// In parallel mode each site must be fed by at most one goroutine (see
// the Tracker concurrency contract), per-site rather than global timestamp
// ordering is enforced, and stale rows are counted in Metrics instead of
// being returned as errors from TryObserve. Call Drain (or any query) to
// synchronize, and Close when done to stop the goroutines.
func WithParallel(workers int) Option {
	return func(o *options) {
		o.parallel = true
		o.workers = workers
	}
}

// WithRingSize sets the per-site input ring capacity for WithParallel,
// in row blocks (rounded up to a power of two; ≤0 means the default,
// 256). A TryObserve row occupies one block; an ObserveBatch run fills
// blocks to capacity. When a site's ring fills, TryObserve/ObserveBatch
// block until its worker catches up — backpressure, not loss.
func WithRingSize(n int) Option {
	return func(o *options) { o.ringSize = n }
}

// WithSnapshots arms the lock-free published-snapshot read path: the
// tracker publishes an immutable, versioned copy of its coordinator state
// at construction and every `every` events thereafter (sequential mode:
// delivered rows and clock advances; parallel mode: updates applied at the
// coordinator — passes that apply nothing publish nothing, because the
// state cannot have changed). ≤0 means the default cadence, 256.
//
// On an armed tracker, Sketch, SketchGram, Snapshot, SnapshotVersion and
// the analytics derived from Snapshot read the latest published version
// without locks — safe from any number of goroutines concurrently with
// live ingestion, at most one cadence behind it. Drain publishes a fresh
// snapshot, so Drain-then-query is exact. Each publication copies the
// small coordinator state (O(d²) for the deterministic family), amortized
// across the cadence; sinks installed alongside snapshots may be invoked
// from the publishing goroutine and must be safe for concurrent use in
// parallel mode.
func WithSnapshots(every int) Option {
	return func(o *options) {
		o.snapshots = true
		o.snapEvery = every
	}
}

// WithSink installs an event sink receiving the tracker's typed events:
// message traffic, bucket lifecycle, skew drops, sketch queries and
// threshold renegotiations. With WithParallel the sink is invoked from
// multiple worker goroutines and must be safe for concurrent use
// (CountingSink and other atomic sinks qualify).
func WithSink(s Sink) Option {
	return func(o *options) {
		o.sink = s
		o.haveSink = true
	}
}

// WithTracing enables span-based causal tracing: each sampled row's
// journey (ingest → bucket create/merge/expire → send → recv → query) is
// recorded into a bounded ring, exportable via Tracker.TraceChrome or the
// /debug/trace endpoint of MetricsHandler. Incompatible with WithParallel.
func WithTracing(cfg TraceConfig) Option {
	return func(o *options) { o.tracing = &cfg }
}

// WithAudit enables the live ε-error auditor: a shadow path keeping the
// exact windowed covariance and periodically measuring err(A_w, B)
// against ε (Metrics().Audit, Tracker.AuditSamples, /debug/audit). The
// shadow window costs O(window·d) memory and an O(d²) update per row, so
// enable it on canaries and soak tests. Incompatible with WithParallel.
func WithAudit(cfg AuditConfig) Option {
	return func(o *options) { o.audit = &cfg }
}
