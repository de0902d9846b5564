package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"distwindow"
	"distwindow/internal/datagen"
	"distwindow/internal/stream"
)

// workload is one benchmark workload. layers are the per-layer figures
// its traced run prints: those of the layers the workload runs, every one
// of layerMetrics among them.
type workload struct {
	name   string
	why    string
	layers []string
	run    func(e *env, r *result) error
}

// da1Layers are the layers both DA1 workloads run: the facade over the
// core DA1 protocol, whose sites keep mEHs of FD sketches and run the
// spectral trigger.
var da1Layers = []string{
	"distwindow.observe_ns_per_row", "distwindow.drain_s", "distwindow.open_ms_per_stream",
	"distwindow.live_buckets",
	"core.site_step_ns_per_row", "core.updates_per_krow", "core.apply_ns_per_update",
	"meh.add_ns_per_row", "meh.apply_gram_ns", "meh.space_words_max", "meh.buckets_merged", "meh.buckets_expired",
	"fd.update_ns_per_row",
	"mat.eig_sym_us", "mat.op_norm_us",
	"bench.trace_overhead_pct",
}

var workloads = []workload{
	{
		name:   "da1-window",
		why:    "DA1 fed row by row: per-site mEH, FD shrink and spectral-trigger cost; the mat/fd/meh/core workload and the bypass for pipeline and snapshot changes",
		layers: da1Layers,
		run:    func(e *env, r *result) error { return runDA1(e, r, false) },
	},
	{
		name: "da1-pipeline",
		why:  "da1-window's events as 64-row per-site batches into WithParallel(2): same site work, so the difference isolates internal/protocol",
		layers: append(append([]string(nil), da1Layers...),
			"protocol.enqueue_wait_s", "protocol.worker_busy_share", "protocol.apply_busy_share", "protocol.drain_s"),
		run: func(e *env, r *result) error { return runDA1(e, r, true) },
	},
	{
		name: "serve-registry",
		why:  "64 WikiSim DA2 streams in a Registry with snapshots, each run past W (cmd/benchjson's never are), ingested beside a 200/s open-loop querier",
		layers: []string{
			"distwindow.observe_ns_per_row", "distwindow.drain_s", "distwindow.open_ms_per_stream",
			"distwindow.snapshot_publishes", "distwindow.sketch_ms_p99", "distwindow.snapshot_repeat_ratio",
			"distwindow.live_buckets",
			"tenant.get_ns",
			"core.site_step_ns_per_row", "core.updates_per_krow", "core.apply_ns_per_update",
			"fd.update_ns_per_row",
			"iwmt.input_ns_per_row", "iwmt.msgs_per_krow",
			"mat.eig_sym_us", "mat.psd_sqrt_us",
			"query_p50_ms", "query_p99_ms", "bench.query_gen_lag_ms_p99", "bench.trace_overhead_pct",
		},
		run: runRegistry,
	},
	{
		name: "wire-loopback",
		why:  "two DA2 sites on binary v2 resilient senders over 127.0.0.1 to one coordinator: the only workload where codec, framing, acks and TCP carry traffic",
		layers: []string{
			"core.updates_per_krow",
			"fd.update_ns_per_row",
			"iwmt.input_ns_per_row", "iwmt.msgs_per_krow",
			"mat.eig_sym_us",
			"wire.send_ns", "wire.flush_wait_s", "wire.bytes_per_frame", "wire.replays", "wire_bytes_per_window",
			"codec.encode_ns", "codec.decode_ns",
			"bench.trace_overhead_pct",
		},
		run: runWire,
	},
}

// Workload sizes. The full sizes are what the benchmark measures; the
// tiny ones keep the smoke tests fast.
type sizes struct {
	da1D, da1Sites, da1PerWindow, da1Windows   int
	regStreams, regD, regPerWindow, regWindows int
	wireD, wirePerWindow, wireWindows          int
	ticks                                      int
	setupsPerRep                               int
}

var fullSizes = sizes{
	da1D: 32, da1Sites: 8, da1PerWindow: 1000, da1Windows: 21,
	regStreams: 64, regD: 32, regPerWindow: 250, regWindows: 6,
	wireD: 32, wirePerWindow: 2000, wireWindows: 11,
	ticks:        160,
	setupsPerRep: 4,
}

var tinySizes = sizes{
	da1D: 16, da1Sites: 4, da1PerWindow: 150, da1Windows: 11,
	regStreams: 4, regD: 16, regPerWindow: 200, regWindows: 4,
	wireD: 16, wirePerWindow: 120, wireWindows: 11,
	ticks:        6,
	setupsPerRep: 1,
}

func (e *env) sizes() sizes {
	if e.tiny {
		return tinySizes
	}
	return fullSizes
}

// eps is every workload's ε.
const eps = 0.1

// guaranteeFactor is the multiple of ε the verification replay's error
// must stay within for the run to pass. DA1 is held to ε itself. DA2
// exceeds ε on this data, so it is held to the bound the repository's own
// test asserts on its maximum error (TestDA2CovarianceError: 6ε), and a
// maximum above ε is reported next to cov_err_max as a finding.
var guaranteeFactor = map[distwindow.Protocol]float64{distwindow.DA1: 1, distwindow.DA2: 6}

// batchRows is the ObserveBatch run length of the batched workloads.
const batchRows = 64

// runDA1 runs da1-window (parallel false) or da1-pipeline (true). Both
// feed the same events to the same configuration, so their final
// coordinator state must be bit-identical.
func runDA1(e *env, r *result, parallel bool) error {
	z := e.sizes()
	ds := datagen.Synthetic(z.da1D, datagen.Config{
		N: z.da1PerWindow * z.da1Windows, RowsPerWindow: z.da1PerWindow, Sites: z.da1Sites, Seed: e.seed,
	})
	cfg := distwindow.Config{Protocol: distwindow.DA1, D: ds.D, W: ds.W, Eps: eps, Sites: z.da1Sites}
	s := newTracked("da1", cfg, ds.Events, z.ticks, false)
	ref, err := replay(s, e.trace)
	if err != nil {
		return err
	}
	build := func(b *spanBuf) (system, error) {
		var opts []distwindow.Option
		if parallel {
			opts = append(opts, distwindow.WithParallel(2))
		}
		h := b.begin("distwindow.New", 0)
		tr, err := distwindow.New(s.cfg, opts...)
		b.end(h)
		if err != nil {
			return nil, err
		}
		return &da1System{s: s, ref: ref, tr: tr, parallel: parallel}, nil
	}
	return measure(e, r, plan{
		streams: []*tracked{s},
		refs:    []*reference{ref},
		build:   build,
		facade: func(sys system) (int64, int64) {
			m := sys.(*da1System).tr.Metrics()
			return m.SnapshotPublishes, m.LiveBuckets
		},
		probes: func(system) {
			b := e.log.buf()
			streams, refs := []*tracked{s}, []*reference{ref}
			probeCore(r, b, streams, refs)
			probeMeh(r, b, streams, e.seed)
			probeFD(r, b, streams)
			probeMat(r, b, refs, true, false)
			if parallel {
				probeProtocol(r, b, streams, refs)
			}
		},
	})
}

// da1System is a facade DA1 tracker, sequential or 2-worker parallel.
type da1System struct {
	s        *tracked
	ref      *reference
	tr       *distwindow.Tracker
	parallel bool

	rows, failed int64
	firstErr     error
}

func (x *da1System) feed(b *spanBuf, parent int64) int64 {
	if x.parallel {
		x.feedBatches(b, parent)
	} else {
		x.s.forEach(func(t int64) {
			advance(x.tr, t, b, parent)
		}, func(i int) {
			h := b.begin("distwindow.TryObserve", parent)
			err := x.tr.TryObserve(x.s.events[i].Site, x.s.rows[i])
			b.end(h)
			x.count(1, err)
		})
	}
	h := b.begin("distwindow.Drain", parent)
	x.tr.Drain()
	b.end(h)
	return x.rows
}

// feedBatches hands the events to the pipeline as per-site ObserveBatch
// runs of batchRows, keeping each site's rows in order. At a clock tick
// every partial run is handed over first, so no row is older than the
// clock.
func (x *da1System) feedBatches(b *spanBuf, parent int64) {
	pending := make([][]distwindow.Row, x.s.cfg.Sites)
	flush := func(site int) {
		h := b.begin("distwindow.ObserveBatch", parent)
		n, err := x.tr.ObserveBatch(site, pending[site])
		b.end(h)
		x.rows += int64(n)
		if err != nil {
			x.count(0, err)
		}
		pending[site] = pending[site][:0]
	}
	flushAll := func() {
		for site := range pending {
			if len(pending[site]) > 0 {
				flush(site)
			}
		}
	}
	x.s.forEach(func(t int64) {
		flushAll()
		advance(x.tr, t, b, parent)
	}, func(i int) {
		site := x.s.events[i].Site
		pending[site] = append(pending[site], x.s.rows[i])
		if len(pending[site]) == batchRows {
			flush(site)
		}
	})
	flushAll()
}

// advance ticks a facade tracker's clock.
func advance(tr *distwindow.Tracker, t int64, b *spanBuf, parent int64) {
	h := b.begin("distwindow.Advance", parent)
	tr.Advance(t)
	b.end(h)
}

func (x *da1System) count(n int64, err error) {
	if err != nil {
		x.failed++
		if x.firstErr == nil {
			x.firstErr = err
		}
		return
	}
	x.rows += n
}

func (x *da1System) verify(r *result) {
	n := int64(len(x.s.events))
	r.ops(n, n-x.rows, x.firstErr)
	g, ok := x.tr.SketchGram()
	r.check(ok && sameGram(g, x.ref.gram), "%s final Ĉ differs from the sequential reference replay", x.name())
	st := x.tr.Stats()
	r.check(st.TotalWords() == x.ref.stats.TotalWords(), "%s sent %d words, reference %d", x.name(), st.TotalWords(), x.ref.stats.TotalWords())
	x.rows, x.failed, x.firstErr = 0, 0, nil
}

func (x *da1System) name() string {
	if x.parallel {
		return "da1-pipeline"
	}
	return "da1-window"
}

func (x *da1System) close() { x.tr.Close() }

// querySnapshot is one facade query: Snapshot, then Sketch.
func querySnapshot(tr *distwindow.Tracker, stream int, b *spanBuf, parent int64, q *querySamples) error {
	h := b.begin("distwindow.Snapshot", parent)
	snap, err := tr.Snapshot()
	b.end(h)
	if err != nil {
		return err
	}
	h = b.begin("distwindow.Snapshot.Sketch", parent)
	sk := snap.Sketch()
	b.end(h)
	if sk.Cols() != tr.Config().D {
		return fmt.Errorf("sketch has %d columns, want %d", sk.Cols(), tr.Config().D)
	}
	q.note(stream, snap.Version())
	return nil
}

// regStreams generates serve-registry's streams: each its own seeded
// WikiSim stream, with sites reassigned per batchRows-row run so a
// sequential tracker can take each run as one ObserveBatch.
func regStreams(e *env) []*tracked {
	z := e.sizes()
	out := make([]*tracked, z.regStreams)
	for i := range out {
		seed := e.seed*1_000_003 + int64(i)
		ds := datagen.WikiSim(z.regD, datagen.Config{
			N: z.regPerWindow * z.regWindows, RowsPerWindow: z.regPerWindow, Sites: 8, Seed: seed,
		})
		rng := rand.New(rand.NewSource(seed))
		evs := ds.Events
		for c := 0; c < len(evs); c += batchRows {
			site := rng.Intn(8)
			for j := c; j < min(c+batchRows, len(evs)); j++ {
				evs[j].Site = site
			}
		}
		cfg := distwindow.Config{Protocol: distwindow.DA2, D: ds.D, W: ds.W, Eps: eps, Sites: 8}
		out[i] = newTracked("s"+strconv.Itoa(i), cfg, evs, max(2, z.ticks/12), true)
	}
	return out
}

// plan is what measure needs from a workload.
type plan struct {
	streams []*tracked
	refs    []*reference
	build   func(b *spanBuf) (system, error)
	// queries returns what the open-loop querier that ran beside the
	// feeds measured; nil when the workload has no querier.
	queries func(sys system) *querySamples
	// words reads the protocol's words/window from the last fed system;
	// nil means the reference replay's figure (the fed systems must match
	// it).
	words func(sys system) float64
	// wireBytes reads the bytes/window on the sockets of the last fed
	// system; nil when the workload has no sockets.
	wireBytes func(sys system) float64
	// facade reads the last system's snapshot publications and live
	// buckets for the distwindow figures of a traced run; nil when the
	// workload does not run on the facade.
	facade func(sys system) (publishes, buckets int64)
	// probes run the probes of the layers the workload runs, in a traced
	// run.
	probes func(last system)
}

// measure runs a workload's timed reps, each after a few timed set-ups,
// for the whole budget, and reports the figures.
func measure(e *env, r *result, p plan) error {
	z := e.sizes()
	// The heap figure is what the last system adds to the inputs and
	// references, which are all built by now.
	baseHeap := heapLiveMB()
	var setups []float64
	var reps []rep
	var last system
	var err error
	var tracedRows int64
	if e.trace {
		// Half the reps untraced, half traced: the rate difference is the
		// tracing overhead.
		plain, sys, err := runReps(r, e.budget/2, 2, z.setupsPerRep, &setups, nil, p.build)
		if err != nil {
			return err
		}
		sys.close()
		traced, sys2, err := runReps(r, e.budget/2, 2, z.setupsPerRep, &setups, e.log.buf(), p.build)
		if err != nil {
			return err
		}
		last = sys2
		reps = traced
		for _, x := range traced {
			tracedRows += x.rows
		}
		r.layer("bench.trace_overhead_pct", "%", 100*(1-totalRate(traced)/totalRate(plain)), len(traced)+len(plain))
	} else {
		reps, last, err = runReps(r, e.budget, 3, z.setupsPerRep, &setups, nil, p.build)
		if err != nil {
			return err
		}
	}
	defer last.close()

	m := r.add("setup_s", "s", median(setups), len(setups))
	ss := sorted(setups)
	m.note = fmt.Sprintf("p10=%.4g p90=%.4g", ss[len(ss)/10], ss[len(ss)*9/10])
	repMetrics(r, reps)
	words, space := 0.0, 0.0
	var covSum, covWorst float64
	var rows, updates int
	checks, excess := 0, 0
	for i, ref := range p.refs {
		s := p.streams[i]
		words += float64(ref.stats.TotalWords()) / s.windows()
		space = math.Max(space, float64(ref.stats.MaxSiteWords))
		covSum += ref.covErrMax
		covWorst = math.Max(covWorst, ref.covErrMax)
		checks += ref.checks
		rows += len(s.events)
		updates += ref.updates
		bound := guaranteeFactor[s.cfg.Protocol] * eps
		r.check(ref.checks > 0 && ref.covErrMax <= bound, "stream %s: cov_err_max %.4g > %g", s.id, ref.covErrMax, bound)
		if ref.covErrMax > eps {
			excess++
		}
	}
	words /= float64(len(p.refs))
	if p.words != nil {
		words = p.words(last)
	}
	r.add("words_per_window", "words", words, len(reps))
	r.add("site_space_words", "words", space, len(reps))
	// A stream's figure is its maximum over the checkpoints; over many
	// streams the mean of those maxima, since the single worst stream of
	// 64 moves by half from seed to seed.
	m = r.add("cov_err_max", "ratio", covSum/float64(len(p.refs)), checks)
	if len(p.refs) > 1 {
		m.note = fmt.Sprintf("mean of %d streams' maxima; worst stream %.4g", len(p.refs), covWorst)
	}
	if excess > 0 {
		r.findings = append(r.findings, fmt.Sprintf("cov_err_max above ε=%g on %d of %d streams", eps, excess, len(p.refs)))
	}
	reordered := 0
	for _, s := range p.streams {
		reordered += s.reordered
	}
	if reordered > 0 {
		r.findings = append(r.findings, fmt.Sprintf("%d events with tied timestamps put in (T, site) order", reordered))
	}
	var q *querySamples
	if p.queries != nil {
		q = p.queries(last)
		queryMetrics(r, q)
	}
	if p.wireBytes != nil {
		r.layer("wire_bytes_per_window", "bytes", p.wireBytes(last), len(reps))
	}
	r.add("heap_live_mb", "MB", heapLiveMB()-baseHeap, 1)
	if e.trace {
		// Every workload's updates are those of its core protocol: the
		// fed systems must emit exactly the reference's (checked).
		r.layer("core.updates_per_krow", "1/krow", 1000*float64(updates)/float64(rows), rows)
		if p.facade != nil {
			publishes, buckets := p.facade(last)
			facadeLayers(r, e.log.spans(), tracedRows, len(reps), q, publishes, buckets)
		}
		p.probes(last)
	}
	return nil
}

// siteRows returns the rows of a tracked stream routed to one site,
// in order.
func siteRows(s *tracked, site int) []stream.Row {
	var out []stream.Row
	for _, e := range s.events {
		if e.Site == site {
			out = append(out, e.Row)
		}
	}
	return out
}
