package wire

import (
	"fmt"
	"math"

	"distwindow/internal/eh"
	"distwindow/internal/iwmt"
	"distwindow/internal/meh"
	"distwindow/internal/trace"
	"distwindow/mat"
)

// sendTraced stamps the current span's context onto m and pushes it: the
// shared send path of every networked site. A send during a traced
// Observe becomes a child "send" span whose context rides in the frame;
// with no tracer (or an unsampled row) the message goes out untraced at
// the cost of one nil-check.
func sendTraced(tr *trace.Tracer, out Sender, m Msg) error {
	sp := tr.Child(trace.OpSend, m.Site, m.T)
	if sp.Sampled() {
		ctx := sp.Context()
		m.Trace, m.Span = ctx.Trace, ctx.Span
	}
	err := out.Send(m)
	sp.End()
	return err
}

// SiteConfig parameterizes a networked site.
type SiteConfig struct {
	// ID is the site's identifier in messages.
	ID int
	// D is the row dimension.
	D int
	// W is the window length in ticks.
	W int64
	// Eps is the local covariance-error budget; with m sites each running
	// at ε, the coordinator's global error is ε by the triangle
	// inequality (§III-B).
	Eps float64
}

func (c SiteConfig) validate() error {
	if c.D < 1 || c.W <= 0 || c.Eps <= 0 || c.Eps >= 1 {
		return fmt.Errorf("wire: invalid site config %+v", c)
	}
	return nil
}

// DA2Site is the networked DA2 site: IWMT forward tracking of arrivals
// plus backward tracking of the closed window's ledger — exact subtraction
// of each ledger message as it expires (ledger replay, NewDA2Site), or the
// compressed DA2-C variant (NewDA2CSite) that re-sketches the ledger in
// reverse through IWMT_c, forward-tracks the expiry queue through IWMT_e,
// and ships the FD-shaved PSD residual at drain time so cancellation stays
// exact. One-way: it only ever calls Sender.Send.
type DA2Site struct {
	cfg      SiteConfig
	out      Sender
	compress bool
	a        *iwmt.Tracker
	mass     *eh.Histogram
	ledger   []iwmt.Msg
	q        []iwmt.Msg
	// e is IWMT_e (compress mode only); resid accumulates what was added
	// for the previous window minus what has been subtracted so far; ws is
	// the persistent workspace for the residual eigendecompositions.
	e        *iwmt.Tracker
	resid    *mat.Dense
	ws       *mat.Workspace
	boundary int64
	now      int64
	tr       *trace.Tracer
}

// NewDA2Site returns a ledger-replay site pushing to out.
func NewDA2Site(cfg SiteConfig, out Sender) (*DA2Site, error) {
	return newDA2Site(cfg, out, false)
}

// NewDA2CSite returns a compressed (DA2-C) site pushing to out.
func NewDA2CSite(cfg SiteConfig, out Sender) (*DA2Site, error) {
	return newDA2Site(cfg, out, true)
}

func newDA2Site(cfg SiteConfig, out Sender, compress bool) (*DA2Site, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &DA2Site{cfg: cfg, out: out, compress: compress, mass: eh.New(cfg.W, cfg.Eps/2), boundary: cfg.W}
	s.a = iwmt.New(s.fdEll(), cfg.D, func() float64 { return cfg.Eps * s.mass.Query() })
	return s, nil
}

// fdEll is the FD buffer size for the IWMT instances: ⌈1/ε⌉ keeps the
// sketch-drift term at ε·F².
func (s *DA2Site) fdEll() int { return int(math.Ceil(1 / s.cfg.Eps)) }

// SetTracer installs a causal tracer: each Observe becomes a (sampled)
// root "ingest" span, sends become child spans whose context rides in
// the outgoing frames, and the mass histogram's bucket lifecycle is
// recorded as instants. The site owns the tracer — sites run one
// goroutine each, so give every site its own Tracer over a shared Ring.
// Install before feeding data; nil disables.
func (s *DA2Site) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.mass.SetTracer(tr, s.cfg.ID)
}

// Observe feeds one local row; timestamps must be non-decreasing.
func (s *DA2Site) Observe(t int64, v []float64) error {
	sp := s.tr.Start(trace.OpIngest, s.cfg.ID, t)
	defer sp.End()
	if err := s.advance(t); err != nil {
		return err
	}
	if w := mat.VecNormSq(v); w > 0 {
		s.mass.Insert(t, w)
		for _, m := range s.a.Input(t, v) {
			if err := s.sendA(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Advance moves the site's clock without new data.
func (s *DA2Site) Advance(t int64) error { return s.advance(t) }

func (s *DA2Site) advance(now int64) error {
	if now <= s.now && now < s.boundary {
		return s.processExpiry(now)
	}
	if now > s.now {
		s.now = now
		s.mass.Advance(now)
	}
	for now >= s.boundary {
		b := s.boundary
		// Everything from the closing window that must eventually be
		// subtracted expires by b+W; drain the old queue first.
		if err := s.processExpiry(b); err != nil {
			return err
		}
		// Flush IWMT_a so the ledger covers the whole closed window.
		for _, m := range s.a.Flush(b) {
			if err := s.sendA(m); err != nil {
				return err
			}
		}
		if err := s.startBackward(b); err != nil {
			return err
		}
		s.boundary += s.cfg.W
	}
	return s.processExpiry(now)
}

// startBackward converts the closed window's ledger into the expiry queue
// (mirrors core's da2Site.startBackward over the wire).
func (s *DA2Site) startBackward(b int64) error {
	if s.e != nil {
		// Defensive: the previous queue drains by its own boundary, so
		// processExpiry(b) above already flushed IWMT_e and the residual.
		for _, out := range s.e.Flush(b) {
			if err := s.sendE(out.T, out.V); err != nil {
				return err
			}
		}
		s.e = nil
		if err := s.drainResidual(); err != nil {
			return err
		}
	}
	if len(s.ledger) == 0 {
		s.q = nil
		return nil
	}
	if !s.compress {
		// Ledger replay: the ledger is already in ascending time order.
		s.q = s.ledger
		s.ledger = nil
		return nil
	}
	// Compress mode: replay the ledger in reverse through IWMT_c with the
	// paper's growing threshold ε·(mass seen so far in reverse).
	var seen float64
	c := iwmt.New(s.fdEll(), s.cfg.D, func() float64 { return s.cfg.Eps * seen })
	var q []iwmt.Msg
	for i := len(s.ledger) - 1; i >= 0; i-- {
		m := s.ledger[i]
		seen += mat.VecNormSq(m.V)
		q = append(q, c.Input(m.T, m.V)...)
	}
	q = append(q, c.Flush(s.ledger[0].T)...)
	// IWMT_c emitted in descending time; expiry consumes ascending.
	for l, r := 0, len(q)-1; l < r; l, r = l+1, r-1 {
		q[l], q[r] = q[r], q[l]
	}
	s.q = q
	// The residual for this window starts at the Gram of everything that
	// was added for it (the ledger); each (−) message nets against it.
	if s.resid == nil {
		s.resid = mat.NewDense(s.cfg.D, s.cfg.D)
	}
	s.resid.Zero()
	for _, m := range s.ledger {
		mat.OuterAdd(s.resid, m.V, 1)
	}
	s.ledger = nil
	s.e = iwmt.New(s.fdEll(), s.cfg.D, func() float64 { return s.cfg.Eps * s.mass.Query() })
	return nil
}

// processExpiry feeds expired queue entries to the backward path.
func (s *DA2Site) processExpiry(now int64) error {
	cut := now - s.cfg.W
	for len(s.q) > 0 && s.q[0].T <= cut {
		m := s.q[0]
		s.q = s.q[1:]
		if s.e == nil {
			// Ledger replay: subtract the exact message.
			if err := s.sendE(m.T, m.V); err != nil {
				return err
			}
		} else {
			for _, out := range s.e.Input(m.T, m.V) {
				if err := s.sendE(out.T, out.V); err != nil {
					return err
				}
			}
		}
	}
	if len(s.q) == 0 && s.e != nil {
		// Queue drained: flush IWMT_e and ship the FD-shaved residual so
		// the closed window cancels exactly.
		for _, out := range s.e.Flush(now) {
			if err := s.sendE(out.T, out.V); err != nil {
				return err
			}
		}
		s.e = nil
		if err := s.drainResidual(); err != nil {
			return err
		}
	}
	return nil
}

// drainResidual ships the PSD mass the compress-mode re-sketches shaved
// off, restoring exact cancellation for the drained window.
func (s *DA2Site) drainResidual() error {
	if s.resid == nil || mat.FrobSq(s.resid) == 0 {
		return nil
	}
	if s.ws == nil {
		s.ws = mat.NewWorkspace()
	}
	eig := mat.EigSymInto(s.resid, s.ws)
	for i, lam := range eig.Values {
		if lam <= 0 {
			// The residual is PSD up to round-off; skip noise.
			continue
		}
		v := eig.Vectors.Row(i)
		scaled := make([]float64, len(v))
		f := math.Sqrt(lam)
		for j := range v {
			scaled[j] = f * v[j]
		}
		if err := s.sendE(s.now, scaled); err != nil {
			return err
		}
	}
	s.resid.Zero()
	return nil
}

func (s *DA2Site) sendA(m iwmt.Msg) error {
	s.ledger = append(s.ledger, m)
	return sendTraced(s.tr, s.out, Msg{Site: s.cfg.ID, Kind: DirectionAdd, T: m.T, V: m.V})
}

// sendE ships a (−) message. In compress mode the site nets it against
// the residual of the window currently draining.
func (s *DA2Site) sendE(t int64, v []float64) error {
	if s.resid != nil {
		mat.OuterAdd(s.resid, v, -1)
	}
	return sendTraced(s.tr, s.out, Msg{Site: s.cfg.ID, Kind: DirectionRemove, T: t, V: v})
}

// DA1Site is the networked DA1 site: an mEH plus a replica of the
// coordinator's Ĉ⁽ʲ⁾, shipping significant eigendirections on trigger.
type DA1Site struct {
	cfg   SiteConfig
	out   Sender
	hist  *meh.Histogram
	chat  *mat.Dense
	churn float64
	lastF float64
	pv    []float64
	now   int64
	tr    *trace.Tracer
	// mv is the Ĉ·x scratch of the trigger operator applyOp; diff holds
	// C − Ĉ during a report; ws is the site's decomposition and
	// power-iteration workspace. All persist so a report allocates only
	// the frames it ships.
	mv      []float64
	applyOp func(x, y []float64)
	diff    *mat.Dense
	ws      *mat.Workspace
}

// NewDA1Site returns a site pushing to out.
func NewDA1Site(cfg SiteConfig, out Sender) (*DA1Site, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &DA1Site{
		cfg:  cfg,
		out:  out,
		hist: meh.New(cfg.W, cfg.D, cfg.Eps/2),
		chat: mat.NewDense(cfg.D, cfg.D),
		pv:   make([]float64, cfg.D),
		mv:   make([]float64, cfg.D),
		diff: mat.NewDense(cfg.D, cfg.D),
		ws:   mat.NewWorkspace(),
	}
	// y = (C − Ĉ)x, reading s.hist at call time so a restored histogram
	// is picked up.
	s.applyOp = func(x, y []float64) {
		s.hist.ApplyGram(x, y)
		mat.MulVecInto(s.mv, s.chat, x)
		for i := range y {
			y[i] -= s.mv[i]
		}
	}
	return s, nil
}

// SetTracer installs a causal tracer (see DA2Site.SetTracer). Install
// before feeding data; nil disables.
func (s *DA1Site) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.hist.SetTracer(tr, s.cfg.ID)
}

// Observe feeds one local row.
func (s *DA1Site) Observe(t int64, v []float64) error {
	sp := s.tr.Start(trace.OpIngest, s.cfg.ID, t)
	defer sp.End()
	s.now = t
	s.hist.Add(t, v)
	added := mat.VecNormSq(v)
	est := s.hist.FrobSqEstimate()
	expired := s.lastF + added - est
	if expired < 0 {
		expired = 0
	}
	s.churn += added + expired
	s.lastF = est
	return s.maybeReport()
}

// Advance moves the site's clock without new data.
func (s *DA1Site) Advance(t int64) error {
	if t <= s.now {
		return nil
	}
	s.now = t
	s.hist.Advance(t)
	est := s.hist.FrobSqEstimate()
	if d := s.lastF - est; d > 0 {
		s.churn += d
	}
	s.lastF = est
	return s.maybeReport()
}

func (s *DA1Site) maybeReport() error {
	fhat := s.lastF
	if fhat <= 0 {
		if mat.FrobSq(s.chat) > 0 {
			s.diff.CopyFrom(s.chat)
			mat.ScaleInPlace(s.diff, -1)
			return s.sendDiff(s.diff, 0)
		}
		s.churn = 0
		return nil
	}
	if s.churn < s.cfg.Eps/4*fhat {
		return nil
	}
	s.churn = 0
	norm := mat.OpSymNormWarmWS(s.cfg.D, s.pv, 8, s.applyOp, s.ws)
	if norm <= s.cfg.Eps*fhat {
		return nil
	}
	s.hist.GramInto(s.diff)
	mat.SubInPlace(s.diff, s.chat)
	return s.sendDiff(s.diff, s.cfg.Eps*fhat)
}

func (s *DA1Site) sendDiff(diff *mat.Dense, cutoff float64) error {
	eig := mat.EigSymInto(diff, s.ws)
	sent := 0
	send := func(i int) error {
		lam := eig.Values[i]
		v := eig.Vectors.Row(i)
		scaled := make([]float64, len(v))
		f := math.Sqrt(math.Abs(lam))
		for j := range v {
			scaled[j] = f * v[j]
		}
		kind := DirectionAdd
		if lam < 0 {
			kind = DirectionRemove
		}
		mat.OuterAdd(s.chat, v, lam)
		sent++
		return sendTraced(s.tr, s.out, Msg{Site: s.cfg.ID, Kind: kind, T: s.now, V: scaled})
	}
	for i, lam := range eig.Values {
		if lam == 0 || math.Abs(lam) < cutoff {
			continue
		}
		if err := send(i); err != nil {
			return err
		}
	}
	if sent == 0 && cutoff > 0 {
		best, bl := -1, 0.0
		for i, lam := range eig.Values {
			if a := math.Abs(lam); a > bl {
				best, bl = i, a
			}
		}
		if best >= 0 && bl > 0 {
			return send(best)
		}
	}
	return nil
}

// SumSite is the networked Algorithm-3 site.
type SumSite struct {
	cfg  SiteConfig
	out  Sender
	hist *eh.Histogram
	chat float64
	now  int64
	tr   *trace.Tracer
}

// NewSumSite returns a site pushing scalar deltas to out.
func NewSumSite(cfg SiteConfig, out Sender) (*SumSite, error) {
	cfg.D = 1
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &SumSite{cfg: cfg, out: out, hist: eh.New(cfg.W, cfg.Eps/2)}, nil
}

// SetTracer installs a causal tracer (see DA2Site.SetTracer). Install
// before feeding data; nil disables.
func (s *SumSite) SetTracer(tr *trace.Tracer) {
	s.tr = tr
	s.hist.SetTracer(tr, s.cfg.ID)
}

// Observe records a positive weight.
func (s *SumSite) Observe(t int64, w float64) error {
	sp := s.tr.Start(trace.OpIngest, s.cfg.ID, t)
	defer sp.End()
	s.now = t
	if w > 0 {
		s.hist.Insert(t, w)
	} else {
		s.hist.Advance(t)
	}
	return s.check()
}

// Advance moves the clock without new data.
func (s *SumSite) Advance(t int64) error {
	if t <= s.now {
		return nil
	}
	s.now = t
	s.hist.Advance(t)
	return s.check()
}

func (s *SumSite) check() error {
	c := s.hist.Query()
	d := c - s.chat
	if math.Abs(d) > s.cfg.Eps*c || (c == 0 && s.chat != 0) {
		s.chat = c
		return sendTraced(s.tr, s.out, Msg{Site: s.cfg.ID, Kind: SumDelta, T: s.now, Delta: d})
	}
	return nil
}
