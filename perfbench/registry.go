package main

import (
	"fmt"
	"math/rand"

	"distwindow"
)

// registryQueryRate is serve-registry's open-loop query rate, queries/s.
const registryQueryRate = 200

// runRegistry runs serve-registry: the sketchd -serve shape, a Registry
// of DA2 streams opened WithSnapshots, one goroutine ingesting
// round-robin in ObserveBatch runs while one open-loop querier reads
// random streams' snapshots.
func runRegistry(e *env, r *result) error {
	streams := regStreams(e)
	refs := make([]*reference, len(streams))
	for i, s := range streams {
		ref, err := replay(s, e.trace)
		if err != nil {
			return err
		}
		refs[i] = ref
	}
	queries := &querySamples{}
	seed := e.seed
	build := func(b *spanBuf) (system, error) {
		reg := distwindow.NewRegistry()
		for _, s := range streams {
			h := b.begin("distwindow.Registry.Open", 0)
			_, _, err := reg.Open(s.id, s.cfg, distwindow.WithSnapshots(0))
			b.end(h)
			if err != nil {
				reg.Close()
				return nil, err
			}
		}
		return &regSystem{streams: streams, refs: refs, reg: reg, q: queries, seed: seed}, nil
	}
	return measure(e, r, plan{
		streams: streams,
		refs:    refs,
		build:   build,
		queries: func(system) *querySamples { return queries },
		facade: func(sys system) (publishes, buckets int64) {
			sys.(*regSystem).reg.Range(func(_ string, t *distwindow.Tracker) bool {
				m := t.Metrics()
				publishes += m.SnapshotPublishes
				buckets += m.LiveBuckets
				return true
			})
			return publishes, buckets
		},
		probes: func(last system) {
			b := e.log.buf()
			probeCore(r, b, streams, refs)
			probeFD(r, b, streams)
			probeIWMT(r, b, streams)
			probeMat(r, b, refs, false, true)
			probeTenant(r, b, streams, last.(*regSystem).reg, e.seed)
		},
	})
}

// regSystem is one Registry holding every stream.
type regSystem struct {
	streams []*tracked
	refs    []*reference
	reg     *distwindow.Registry
	q       *querySamples
	seed    int64
	fed     int

	rows, attempted int64
	firstErr        error
}

// feed ingests every stream round-robin, one batchRows run of one stream
// per step, each step resolving its stream with Registry.Get as a serving
// tier does per request. The open-loop querier runs for the whole feed.
func (x *regSystem) feed(b *spanBuf, parent int64) int64 {
	stop := make(chan struct{})
	done := make(chan struct{})
	qb := b.sibling()
	rng := rand.New(rand.NewSource(x.seed + int64(x.fed)))
	x.fed++
	go func() {
		defer close(done)
		openLoop(registryQueryRate, stop, x.q, func() error {
			i := rng.Intn(len(x.streams))
			h := qb.begin("bench.query", 0)
			defer qb.end(h)
			return x.query(i, qb, qb.id(h))
		})
	}()
	runs := 0
	for _, s := range x.streams {
		runs = max(runs, len(s.runs))
	}
	for r := 0; r < runs; r++ {
		for _, s := range x.streams {
			if r >= len(s.runs) {
				continue
			}
			c, hi := s.run(r)
			h := b.begin("distwindow.Registry.Get", parent)
			tr, ok := x.reg.Get(s.id)
			b.end(h)
			x.attempted += int64(hi - c)
			if !ok {
				x.fail(fmt.Errorf("stream %s missing from the registry", s.id))
				continue
			}
			if s.isTick(c) {
				advance(tr, s.tickTime(c), b, parent)
			}
			h = b.begin("distwindow.ObserveBatch", parent)
			acc, err := tr.ObserveBatch(s.events[c].Site, s.rows[c:hi])
			b.end(h)
			x.rows += int64(acc)
			if err != nil {
				x.fail(err)
			}
		}
	}
	for _, s := range x.streams {
		if tr, ok := x.reg.Get(s.id); ok {
			h := b.begin("distwindow.Drain", parent)
			tr.Drain()
			b.end(h)
		}
	}
	close(stop)
	<-done
	return x.rows
}

// query is one serving query: Registry.Get, Snapshot, Sketch.
func (x *regSystem) query(i int, b *spanBuf, parent int64) error {
	h := b.begin("distwindow.Registry.Get", parent)
	tr, ok := x.reg.Get(x.streams[i].id)
	b.end(h)
	if !ok {
		return fmt.Errorf("stream %s missing from the registry", x.streams[i].id)
	}
	return querySnapshot(tr, i, b, parent, x.q)
}

func (x *regSystem) fail(err error) {
	if x.firstErr == nil {
		x.firstErr = err
	}
}

func (x *regSystem) verify(r *result) {
	r.ops(x.attempted, x.attempted-x.rows, x.firstErr)
	for i, s := range x.streams {
		tr, ok := x.reg.Get(s.id)
		if !ok {
			r.check(false, "stream %s missing after the feed", s.id)
			continue
		}
		g, ok := tr.SketchGram()
		r.check(ok && sameGram(g, x.refs[i].gram), "stream %s: final Ĉ differs from the reference replay", s.id)
		r.check(tr.Stats().TotalWords() == x.refs[i].stats.TotalWords(), "stream %s: words differ from the reference replay", s.id)
	}
	x.rows, x.attempted, x.firstErr = 0, 0, nil
}

func (x *regSystem) close() { x.reg.Close() }
