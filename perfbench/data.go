package main

import (
	"fmt"
	"math"
	"sort"

	"distwindow"
	"distwindow/internal/core"
	"distwindow/internal/protocol"
	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

// tracked is one tracked stream of a workload: its generated events, the
// clock ticks between them, and the configuration every system under test
// uses for it.
type tracked struct {
	id     string
	cfg    distwindow.Config
	events []stream.Event
	rows   []distwindow.Row // events[i].Row as a facade row
	// ticks are the event indices, ascending, before which the global
	// clock is advanced (Advance) to one tick before that event's
	// timestamp. A tracker only learns that time passed at a site when the
	// site gets a row or the clock is advanced, so every system under test
	// ticks at the same points; the verification replay checks the sketch
	// at each tick. The tick falls strictly between two rows' timestamps,
	// so the updates it causes are ordered before the next row's in every
	// apply order.
	ticks []int
	// runs are the start indices of the stream's ObserveBatch runs:
	// maximal runs of consecutive events of one site, at most batchRows
	// long. Set for batched streams only.
	runs []int
	// reordered counts the events canonical ordering moved (see
	// newTracked).
	reordered int
}

// newTracked builds a stream whose clock ticks ticks times, evenly from
// the end of its first window to its end. A batched stream is cut into
// ObserveBatch runs, and its ticks fall on run starts so no run is split.
//
// The events are first put in canonical (T, site) order: rows with equal
// timestamps at different sites are sorted by site, each site's own order
// kept. That is the order in which the parallel pipeline applies updates
// (WithParallel), and the sequential path matches it bit for bit only on
// input in that order; fed tied rows in any other order the two paths
// can differ in the last bits. datagen's streams hold a few such ties.
func newTracked(id string, cfg distwindow.Config, events []stream.Event, ticks int, batched bool) *tracked {
	orig := make([]*stream.Event, len(events))
	for i := range events {
		orig[i] = &events[i]
	}
	sort.SliceStable(orig, func(i, j int) bool {
		a, b := orig[i], orig[j]
		return a.Row.T < b.Row.T || (a.Row.T == b.Row.T && a.Site < b.Site)
	})
	sorted := make([]stream.Event, len(events))
	rows := make([]distwindow.Row, len(events))
	s := &tracked{id: id, cfg: cfg, events: sorted, rows: rows}
	for i, e := range orig {
		sorted[i] = *e
		rows[i] = distwindow.Row{T: e.Row.T, V: e.Row.V}
		if e != &events[i] {
			s.reordered++
		}
	}
	if batched {
		for i, e := range sorted {
			if i == 0 || e.Site != sorted[i-1].Site || i-s.runs[len(s.runs)-1] == batchRows {
				s.runs = append(s.runs, i)
			}
		}
	}
	first := firstFullWindow(s)
	n := len(sorted)
	for k := 0; k < ticks; k++ {
		i := first + k*(n-1-first)/max(ticks-1, 1)
		if batched {
			i = s.runs[sort.SearchInts(s.runs, i+1)-1]
		}
		if i > 0 && sorted[i].Row.T-1 > sorted[i-1].Row.T && (len(s.ticks) == 0 || i > s.ticks[len(s.ticks)-1]) {
			s.ticks = append(s.ticks, i)
		}
	}
	return s
}

// run returns the bounds of ObserveBatch run r of a batched stream.
func (s *tracked) run(r int) (lo, hi int) {
	lo = s.runs[r]
	hi = len(s.events)
	if r+1 < len(s.runs) {
		hi = s.runs[r+1]
	}
	return lo, hi
}

// forEach walks the stream: tick(t) before each tick index, then row(i)
// for every event.
func (s *tracked) forEach(tick func(t int64), row func(i int)) {
	k := 0
	for i := range s.events {
		if k < len(s.ticks) && s.ticks[k] == i {
			tick(s.tickTime(i))
			k++
		}
		row(i)
	}
}

// tickTime is the time the clock ticks to before event i.
func (s *tracked) tickTime(i int) int64 { return s.events[i].Row.T - 1 }

// isTick reports whether the clock ticks before event i.
func (s *tracked) isTick(i int) bool {
	k := sort.SearchInts(s.ticks, i)
	return k < len(s.ticks) && s.ticks[k] == i
}

// windows is the stream's span in windows, the divisor of words/window —
// the same definition as internal/bench's MsgWords.
func (s *tracked) windows() float64 {
	span := s.events[len(s.events)-1].Row.T - s.events[0].Row.T
	return math.Max(1, float64(span)/float64(s.cfg.W))
}

func (s *tracked) coreConfig() core.Config {
	c := s.cfg
	return core.Config{D: c.D, W: c.W, Eps: c.Eps, Sites: c.Sites, Seed: c.Seed}
}

// newOneWay builds the stream's protocol through the core layer's one-way
// seam.
func (s *tracked) newOneWay(net *protocol.Network) (protocol.OneWay, error) {
	switch s.cfg.Protocol {
	case distwindow.DA1:
		return core.NewDA1(s.coreConfig(), net)
	case distwindow.DA2:
		return core.NewDA2(s.coreConfig(), net)
	}
	return nil, fmt.Errorf("no one-way core protocol for %s", s.cfg.Protocol)
}

// reference is the untimed verification replay of one stream: the
// protocol driven through the core seam (ObserveSite, then Apply of each
// emitted update in emission order — the sequential facade's semantics),
// checked against the exact window of internal/window at checkpoints.
// Every timed run must reproduce its final coordinator state.
type reference struct {
	gram      *mat.Dense // final coordinator Gram estimate Ĉ
	stats     protocol.Stats
	updates   int
	covErrMax float64
	checks    int
	// final is the exact window at the end of the stream.
	final *window.Union
	// chats and diffs are the coordinator estimate Ĉ and the error matrix
	// A_wᵀA_w − Ĉ at each checkpoint, kept only when keep is set, for the
	// mat probe.
	chats, diffs []*mat.Dense
}

// replay runs the verification replay, checking the sketch at every clock
// tick and at the end of the stream.
func replay(s *tracked, keep bool) (*reference, error) {
	net := protocol.NewNetwork(s.cfg.Sites)
	ow, err := s.newOneWay(net)
	if err != nil {
		return nil, err
	}
	gs, ok := ow.(interface{ SketchGram() *mat.Dense })
	if !ok {
		return nil, fmt.Errorf("%s keeps no Gram estimate", s.cfg.Protocol)
	}
	ref := &reference{final: window.NewUnion(s.cfg.W, s.cfg.D)}
	var cur stream.Event
	emit := func(scale float64, v []float64) {
		ow.Apply(protocol.Update{T: cur.Row.T, Site: cur.Site, Scale: scale, V: v})
		ref.updates++
	}
	checkpoint := func() {
		chat := gs.SketchGram()
		if ref.final.FrobSq() > 0 {
			errv := ref.final.ErrOf(mat.PSDSqrt(chat))
			ref.covErrMax = math.Max(ref.covErrMax, errv)
			ref.checks++
		}
		if keep {
			ref.chats = append(ref.chats, chat)
			ref.diffs = append(ref.diffs, mat.Sub(ref.final.Gram(s.cfg.D), chat))
		}
	}
	s.forEach(func(t int64) {
		// The sequential facade's Advance: every site in index order.
		for site := 0; site < s.cfg.Sites; site++ {
			cur = stream.Event{Site: site, Row: stream.Row{T: t}}
			ow.AdvanceSite(site, t, emit)
		}
		ref.final.Advance(t)
		checkpoint()
	}, func(i int) {
		cur = s.events[i]
		ow.ObserveSite(cur.Site, cur.Row, emit)
		ref.final.Add(cur.Row)
	})
	checkpoint()
	ref.gram = gs.SketchGram()
	ref.stats = net.Stats()
	return ref, nil
}

// firstFullWindow is the index of the first event at least one window
// after the stream's start.
func firstFullWindow(s *tracked) int {
	t0 := s.events[0].Row.T
	for i, e := range s.events {
		if e.Row.T >= t0+s.cfg.W {
			return i
		}
	}
	return len(s.events) - 1
}

// sameGram reports whether two matrices are bit-for-bit identical.
func sameGram(a, b *mat.Dense) bool {
	if a == nil || b == nil {
		return false
	}
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}
