package main

import (
	"bytes"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"distwindow"
	"distwindow/internal/eh"
	"distwindow/internal/fd"
	"distwindow/internal/iwmt"
	"distwindow/internal/meh"
	"distwindow/internal/obs"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/internal/wire/codec"
	"distwindow/mat"
)

// The layer probes of a traced run. Each replays the workload's own
// generated input through one module's public functions, recording a span
// around every call, and reports that layer's figures. Nothing inside the
// program is instrumented: every number is timed at a module boundary
// from here, or read from an existing public surface (Metrics, Stats,
// WithSink/SetSink, ResilientSender.Metrics). A workload runs the probes
// of the layers it runs, and reports only their figures.

// spanTotal sums the durations of the spans of one name recorded in b
// from index from on, and counts them.
func spanTotal(b *spanBuf, from int, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range b.spans[from:] {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

func perUnit(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// probeCore replays each stream through the protocol.OneWay seam: every
// row's ObserveSite, then every emitted update's Apply in emission order.
// The final Ĉ must be bit-identical to the reference's.
func probeCore(r *result, b *spanBuf, streams []*tracked, refs []*reference) {
	from := len(b.spans)
	rows, updates := 0, 0
	for i, s := range streams {
		net := protocol.NewNetwork(s.cfg.Sites)
		ow, err := s.newOneWay(net)
		if err != nil {
			r.check(false, "core probe: %v", err)
			return
		}
		var ups []protocol.Update
		var cur stream.Event
		emit := func(scale float64, v []float64) {
			ups = append(ups, protocol.Update{T: cur.Row.T, Site: cur.Site, Scale: scale, V: v})
		}
		s.forEach(func(t int64) {
			for site := 0; site < s.cfg.Sites; site++ {
				cur = stream.Event{Site: site, Row: stream.Row{T: t}}
				h := b.begin("core.AdvanceSite", 0)
				ow.AdvanceSite(site, t, emit)
				b.end(h)
			}
		}, func(i int) {
			cur = s.events[i]
			h := b.begin("core.ObserveSite", 0)
			ow.ObserveSite(cur.Site, cur.Row, emit)
			b.end(h)
		})
		for j := 0; j < len(ups); j += batchRows {
			h := b.begin("core.Apply[64]", 0)
			for _, u := range ups[j:min(j+batchRows, len(ups))] {
				ow.Apply(u)
			}
			b.end(h)
		}
		rows += len(s.events)
		updates += len(ups)
		g := ow.(interface{ SketchGram() *mat.Dense }).SketchGram()
		r.check(sameGram(g, refs[i].gram), "core probe: stream %s Ĉ differs from the reference replay", s.id)
	}
	obsT, _ := spanTotal(b, from, "core.ObserveSite")
	applyT, _ := spanTotal(b, from, "core.Apply[64]")
	r.layer("core.site_step_ns_per_row", "ns", perUnit(obsT, rows, time.Nanosecond), rows)
	r.layer("core.apply_ns_per_update", "ns", perUnit(applyT, updates, time.Nanosecond), updates)
}

// probeMeh replays each site's rows into its own mEH at the DA1 sites'
// parameters (window W, error ε/2), with a CountingSink installed for
// the bucket lifecycle events.
func probeMeh(r *result, b *spanBuf, streams []*tracked, seed int64) {
	from := len(b.spans)
	rng := rand.New(rand.NewSource(seed))
	rows, gramCalls := 0, 0
	var space int
	var merged, expired int64
	for _, s := range streams {
		x := make([]float64, s.cfg.D)
		y := make([]float64, s.cfg.D)
		for site := 0; site < s.cfg.Sites; site++ {
			h := meh.New(s.cfg.W, s.cfg.D, s.cfg.Eps/2)
			sink := &obs.CountingSink{}
			h.SetSink(sink, site)
			sr := siteRows(s, site)
			step := max(1, len(sr)/8)
			for j, row := range sr {
				sp := b.begin("meh.Add", 0)
				h.Add(row.T, row.V)
				b.end(sp)
				if j%16 == 0 {
					space = max(space, h.SpaceWords())
				}
				if j%step == step-1 {
					for k := range x {
						x[k] = rng.NormFloat64()
					}
					sp := b.begin("meh.ApplyGram", 0)
					h.ApplyGram(x, y)
					b.end(sp)
					gramCalls++
				}
			}
			space = max(space, h.SpaceWords())
			rows += len(sr)
			merged += sink.Count(obs.EvBucketMerged)
			expired += sink.Count(obs.EvBucketExpired)
		}
	}
	addT, _ := spanTotal(b, from, "meh.Add")
	gramT, _ := spanTotal(b, from, "meh.ApplyGram")
	r.layer("meh.add_ns_per_row", "ns", perUnit(addT, rows, time.Nanosecond), rows)
	r.layer("meh.apply_gram_ns", "ns", perUnit(gramT, gramCalls, time.Nanosecond), gramCalls)
	r.layer("meh.space_words_max", "words", float64(space), rows)
	r.layer("meh.buckets_merged", "count", float64(merged), rows)
	r.layer("meh.buckets_expired", "count", float64(expired), rows)
}

// probeFD replays each site's rows into one infinite-window Frequent
// Directions sketch of the mEH buckets' size, ⌈2/ε⌉ rows.
func probeFD(r *result, b *spanBuf, streams []*tracked) {
	from := len(b.spans)
	rows := 0
	for _, s := range streams {
		for site := 0; site < s.cfg.Sites; site++ {
			sk := fd.New(int(math.Ceil(2/s.cfg.Eps)), s.cfg.D)
			for _, row := range siteRows(s, site) {
				h := b.begin("fd.Update", 0)
				sk.Update(row.V)
				b.end(h)
				rows++
			}
		}
	}
	t, _ := spanTotal(b, from, "fd.Update")
	r.layer("fd.update_ns_per_row", "ns", perUnit(t, rows, time.Nanosecond), rows)
}

// probeIWMT replays each site's rows into an IWMT tracker whose threshold
// is ε times a gEH window-mass estimate, as a DA2 site runs it.
func probeIWMT(r *result, b *spanBuf, streams []*tracked) {
	from := len(b.spans)
	rows, msgs := 0, 0
	for _, s := range streams {
		for site := 0; site < s.cfg.Sites; site++ {
			mass := eh.New(s.cfg.W, s.cfg.Eps/2)
			e := s.cfg.Eps
			tr := iwmt.New(int(math.Ceil(1/e)), s.cfg.D, func() float64 { return e * mass.Query() })
			for _, row := range siteRows(s, site) {
				mass.Advance(row.T)
				w := row.NormSq()
				if w == 0 {
					continue
				}
				mass.Insert(row.T, w)
				h := b.begin("iwmt.Input", 0)
				out := tr.Input(row.T, row.V)
				b.end(h)
				msgs += len(out)
				rows++
			}
		}
	}
	t, _ := spanTotal(b, from, "iwmt.Input")
	r.layer("iwmt.input_ns_per_row", "ns", perUnit(t, rows, time.Nanosecond), rows)
	r.layer("iwmt.msgs_per_krow", "1/krow", 1000*float64(msgs)/float64(max(rows, 1)), rows)
}

// probeMat times the dense kernels on the matrices the reference replay
// captured at its checkpoints: Ĉ and the error matrix A_wᵀA_w − Ĉ. Every
// site runs EigSym; opNorm adds the operator norm DA1's spectral trigger
// takes, psdSqrt the square root a Sketch query takes.
func probeMat(r *result, b *spanBuf, refs []*reference, opNorm, psdSqrt bool) {
	from := len(b.spans)
	for _, ref := range refs {
		for i, chat := range ref.chats {
			diff := ref.diffs[i]
			for _, m := range []*mat.Dense{chat, diff} {
				h := b.begin("mat.EigSym", 0)
				mat.EigSym(m)
				b.end(h)
			}
			if opNorm {
				h := b.begin("mat.OpSymNorm", 0)
				mat.OpSymNorm(diff.Rows(), func(v, y []float64) { mat.MulVecInto(y, diff, v) })
				b.end(h)
			}
			if psdSqrt {
				h := b.begin("mat.PSDSqrt", 0)
				mat.PSDSqrt(chat)
				b.end(h)
			}
		}
	}
	eigT, eigN := spanTotal(b, from, "mat.EigSym")
	r.layer("mat.eig_sym_us", "us", perUnit(eigT, eigN, time.Microsecond), eigN)
	if opNorm {
		opT, opN := spanTotal(b, from, "mat.OpSymNorm")
		r.layer("mat.op_norm_us", "us", perUnit(opT, opN, time.Microsecond), opN)
	}
	if psdSqrt {
		sqT, sqN := spanTotal(b, from, "mat.PSDSqrt")
		r.layer("mat.psd_sqrt_us", "us", perUnit(sqT, sqN, time.Microsecond), sqN)
	}
}

// probeProtocol drives a protocol.Pipeline built here over the stream's
// core protocol, with 2 workers, blocks of batchRows and a timing lane
// handler, fed the same per-site batches as da1-pipeline. The final Ĉ
// must be bit-identical to the reference's.
func probeProtocol(r *result, b *spanBuf, streams []*tracked, refs []*reference) {
	from := len(b.spans)
	var wall time.Duration
	var busy, applyBusy atomic.Int64
	const workers = 2
	for i, s := range streams {
		ow, err := s.newOneWay(protocol.NewNetwork(s.cfg.Sites))
		if err != nil {
			r.check(false, "protocol probe: %v", err)
			return
		}
		h := &timingLanes{ow: ow, busy: &busy, lanes: make([]timingLane, s.cfg.Sites)}
		apply := func(u protocol.Update) {
			start := time.Now()
			ow.Apply(u)
			applyBusy.Add(int64(time.Since(start)))
		}
		p := protocol.NewPipeline(s.cfg.Sites, h, apply, protocol.PipelineConfig{Workers: workers, MaxBlock: batchRows})
		start := time.Now()
		pending := make([][]stream.Row, s.cfg.Sites)
		enqueue := func(site int) {
			sp := b.begin("protocol.EnqueueRows", 0)
			p.EnqueueRows(site, pending[site])
			b.end(sp)
			pending[site] = pending[site][:0]
		}
		enqueueAll := func() {
			for site := range pending {
				if len(pending[site]) > 0 {
					enqueue(site)
				}
			}
		}
		s.forEach(func(t int64) {
			enqueueAll()
			sp := b.begin("protocol.Advance", 0)
			p.Advance(t)
			b.end(sp)
		}, func(i int) {
			ev := s.events[i]
			pending[ev.Site] = append(pending[ev.Site], ev.Row)
			if len(pending[ev.Site]) == batchRows {
				enqueue(ev.Site)
			}
		})
		enqueueAll()
		sp := b.begin("protocol.Drain", 0)
		p.Drain(false)
		b.end(sp)
		wall += time.Since(start)
		p.Close()
		g := ow.(interface{ SketchGram() *mat.Dense }).SketchGram()
		r.check(sameGram(g, refs[i].gram), "protocol probe: stream %s Ĉ differs from the reference replay", s.id)
	}
	enqT, enqN := spanTotal(b, from, "protocol.EnqueueRows")
	drainT, drainN := spanTotal(b, from, "protocol.Drain")
	r.layer("protocol.enqueue_wait_s", "s", enqT.Seconds(), enqN)
	r.layer("protocol.worker_busy_share", "ratio", float64(busy.Load())/float64(workers*wall), enqN)
	r.layer("protocol.apply_busy_share", "ratio", float64(applyBusy.Load())/float64(wall), enqN)
	r.layer("protocol.drain_s", "s", drainT.Seconds(), drainN)
}

// timingLanes is the probe's protocol.LaneHandler: it runs the site half
// of the protocol and adds the time each call takes to busy.
type timingLanes struct {
	ow    protocol.OneWay
	busy  *atomic.Int64
	lanes []timingLane
}

// timingLane is one site's emit adapter, stamping updates with the time
// of the item being handled. Only the site's worker touches it.
type timingLane struct {
	t    int64
	emit protocol.Emit
}

func (h *timingLanes) lane(site int, emitAt protocol.EmitAt) *timingLane {
	l := &h.lanes[site]
	if l.emit == nil {
		l.emit = func(scale float64, v []float64) { emitAt(l.t, scale, v) }
	}
	return l
}

func (h *timingLanes) HandleRow(site int, t int64, v []float64, emitAt protocol.EmitAt) int64 {
	start := time.Now()
	l := h.lane(site, emitAt)
	l.t = t
	h.ow.ObserveSite(site, stream.Row{T: t, V: v}, l.emit)
	h.busy.Add(int64(time.Since(start)))
	return t
}

func (h *timingLanes) HandleAdvance(site int, now int64, emitAt protocol.EmitAt) int64 {
	start := time.Now()
	l := h.lane(site, emitAt)
	l.t = now
	h.ow.AdvanceSite(site, now, l.emit)
	h.busy.Add(int64(time.Since(start)))
	return now
}

func (h *timingLanes) HandleFlush(site int, emitAt protocol.EmitAt) int64 {
	return h.lanes[site].t
}

// probeCodec encodes the frames with the binary v2 codec in blocks of
// batchRows, each block flushed, then decodes them back; every decoded
// frame must equal the one encoded.
func probeCodec(r *result, b *spanBuf, frames []codec.Msg) {
	if len(frames) == 0 {
		r.check(false, "codec probe: no frames to replay")
		return
	}
	from := len(b.spans)
	var buf bytes.Buffer
	enc := codec.BinaryV2.NewEncoder(&buf)
	for i := 0; i < len(frames); i += batchRows {
		h := b.begin("codec.EncodeMsg[64]", 0)
		for j := i; j < min(i+batchRows, len(frames)); j++ {
			if err := enc.EncodeMsg(&frames[j]); err != nil {
				r.check(false, "codec probe: encode: %v", err)
				return
			}
		}
		err := enc.Flush()
		b.end(h)
		if err != nil {
			r.check(false, "codec probe: flush: %v", err)
			return
		}
	}
	dec := codec.BinaryV2.NewDecoder(bytes.NewReader(buf.Bytes()))
	var m codec.Msg
	same := true
	for i := 0; i < len(frames); i += batchRows {
		h := b.begin("codec.DecodeMsg[64]", 0)
		for j := i; j < min(i+batchRows, len(frames)); j++ {
			if err := dec.DecodeMsg(&m); err != nil {
				b.end(h)
				r.check(false, "codec probe: decode frame %d: %v", j, err)
				return
			}
			same = same && sameFrame(&m, &frames[j])
		}
		b.end(h)
	}
	r.check(same, "codec probe: a decoded frame differs from the encoded one")
	encT, _ := spanTotal(b, from, "codec.EncodeMsg[64]")
	decT, _ := spanTotal(b, from, "codec.DecodeMsg[64]")
	r.layer("codec.encode_ns", "ns", perUnit(encT, len(frames), time.Nanosecond), len(frames))
	r.layer("codec.decode_ns", "ns", perUnit(decT, len(frames), time.Nanosecond), len(frames))
}

func sameFrame(a, b *codec.Msg) bool {
	if a.Site != b.Site || a.Kind != b.Kind || a.T != b.T || a.Seq != b.Seq || a.StreamID != b.StreamID || len(a.V) != len(b.V) {
		return false
	}
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return false
		}
	}
	return true
}

// probeWireLive reports the wire figures of wire-loopback's traced feeds,
// recorded by its timing sender and byte-counting connections.
func probeWireLive(r *result, x *wireSystem, frames []codec.Msg) {
	spans := x.b.spans
	var sendT, flushT time.Duration
	var sendN, feeds int
	for _, s := range spans {
		switch s.Name {
		case "wire.Send":
			sendT += time.Duration(s.End - s.Start)
			sendN++
		case "wire.FlushWait":
			flushT += time.Duration(s.End - s.Start)
		case "bench.feed":
			feeds++
		}
	}
	var replays int64
	for _, rs := range x.rs {
		replays += rs.Metrics().Replayed
	}
	r.layer("wire.send_ns", "ns", perUnit(sendT, sendN, time.Nanosecond), sendN)
	r.layer("wire.flush_wait_s", "s", flushT.Seconds()/float64(max(feeds, 1)), feeds)
	r.layer("wire.bytes_per_frame", "bytes", float64(x.lastBytes)/float64(max(len(frames), 1)), len(frames))
	r.layer("wire.replays", "count", float64(replays), len(frames))
}

// probeTenant times Registry.Get on the workload's registry over its
// stream ids in a seeded random order, in blocks of 1024 lookups.
func probeTenant(r *result, b *spanBuf, streams []*tracked, reg *distwindow.Registry, seed int64) {
	from := len(b.spans)
	rng := rand.New(rand.NewSource(seed))
	const blocks, per = 64, 1024
	ids := make([]string, per)
	misses := 0
	for k := 0; k < blocks; k++ {
		for j := range ids {
			ids[j] = streams[rng.Intn(len(streams))].id
		}
		h := b.begin("tenant.Registry.Get[1024]", 0)
		for _, id := range ids {
			if _, ok := reg.Get(id); !ok {
				misses++
			}
		}
		b.end(h)
	}
	r.check(misses == 0, "tenant probe: %d lookups missed", misses)
	t, _ := spanTotal(b, from, "tenant.Registry.Get[1024]")
	r.layer("tenant.get_ns", "ns", perUnit(t, blocks*per, time.Nanosecond), blocks*per)
}

// facadeLayers reports the distwindow figures from the facade spans of a
// traced run: rows and feeds are what the traced feeds pushed, q the
// queries (nil without a querier, and then no snapshot figures),
// publishes and buckets the last system's Metrics.
func facadeLayers(r *result, spans []Span, rows int64, feeds int, q *querySamples, publishes, buckets int64) {
	var observe, drain, open time.Duration
	opens := 0
	var sketch []float64
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "distwindow.TryObserve", "distwindow.ObserveBatch":
			observe += d
		case "distwindow.Drain":
			drain += d
		case "distwindow.New", "distwindow.Registry.Open":
			open += d
			opens++
		case "distwindow.Snapshot.Sketch":
			sketch = append(sketch, float64(d)/float64(time.Millisecond))
		}
	}
	r.layer("distwindow.observe_ns_per_row", "ns", float64(observe)/float64(max(rows, 1)), int(rows))
	r.layer("distwindow.drain_s", "s", drain.Seconds()/float64(max(feeds, 1)), feeds)
	r.layer("distwindow.open_ms_per_stream", "ms", perUnit(open, opens, time.Millisecond), opens)
	r.layer("distwindow.live_buckets", "count", float64(buckets), 1)
	if q != nil {
		p99, _ := tail(sketch, 0.99)
		r.layer("distwindow.snapshot_publishes", "count", float64(publishes), 1)
		r.layer("distwindow.sketch_ms_p99", "ms", p99, len(sketch))
		r.layer("distwindow.snapshot_repeat_ratio", "ratio", float64(q.repeats)/float64(max(q.versioned, 1)), int(q.versioned))
	}
}
