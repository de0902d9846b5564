// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§IV): it replays a dataset through a
// protocol, measuring the four quantities the paper reports — observed
// covariance error (average and maximum over query points), communication
// in words per window, maximum per-site space, and update rate.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"distwindow"
	"distwindow/internal/datagen"
	"distwindow/mat"
)

// Result is one protocol run's measurements — one point of a figure.
type Result struct {
	Dataset  string
	Protocol distwindow.Protocol
	Eps      float64
	Sites    int

	// AvgErr and MaxErr are the observed covariance errors over the query
	// points.
	AvgErr, MaxErr float64
	// MsgWords is the average number of words transmitted per window —
	// the paper's msg metric.
	MsgWords float64
	// TotalWords is the raw communication of the whole run.
	TotalWords int64
	// SiteSpace is the maximum words held by any site at any time.
	SiteSpace int64
	// Broadcasts counts coordinator threshold broadcasts (sampling family).
	Broadcasts int64
	// UpdatesPerSec is the processing rate (rows/s of wall time spent in
	// Observe).
	UpdatesPerSec float64
	// Queries is the number of evaluated query points.
	Queries int
}

// Options configures a run.
type Options struct {
	// Sites overrides the dataset's site count by reassigning rows
	// uniformly at random (0 keeps the dataset's assignment).
	Sites int
	// Queries is the number of query points (default 50, the paper's
	// setting), spread uniformly at random over the steady-state region.
	Queries int
	// Ell overrides the sampling protocols' sample-set size (0 derives it
	// from Eps).
	Ell int
	// Seed drives both the protocol and the query-point selection.
	Seed int64
	// SkipErr skips error evaluation (for pure cost/rate measurements).
	SkipErr bool
	// Workers, when positive, ingests through the parallel per-site
	// pipeline (distwindow.WithParallel) with that many site-work
	// goroutines. Only the one-way deterministic protocols support it; the
	// replay remains single-threaded, so the speedup comes from the
	// protocol work moving off the feeding thread.
	Workers int
}

// Run replays ds through the given protocol at error parameter eps.
func Run(ds datagen.Dataset, proto distwindow.Protocol, eps float64, opt Options) (Result, error) {
	sites := opt.Sites
	if sites == 0 {
		sites = maxSite(ds) + 1
	}
	queries := opt.Queries
	if queries == 0 {
		queries = 50
	}
	var topts []distwindow.Option
	if opt.Workers > 0 {
		topts = append(topts, distwindow.WithParallel(opt.Workers))
	}
	tr, err := distwindow.New(distwindow.Config{
		Protocol: proto,
		D:        ds.D,
		W:        ds.W,
		Eps:      eps,
		Sites:    sites,
		Ell:      opt.Ell,
		Seed:     opt.Seed + 1,
	}, topts...)
	if err != nil {
		return Result{}, err
	}
	defer tr.Close()

	rng := rand.New(rand.NewSource(opt.Seed + 2))
	// Query points: uniform over the steady-state region (after the first
	// full window has elapsed).
	n := len(ds.Events)
	steady := n / 5
	isQuery := make(map[int]bool, queries)
	if !opt.SkipErr {
		for len(isQuery) < queries && len(isQuery) < n-steady-1 {
			isQuery[steady+rng.Intn(n-steady)] = true
		}
	}

	// Exact union-window state, maintained incrementally: Gram matrix,
	// Frobenius mass and a row deque. Sparse rows (WIKI-sim) use the
	// nnz²-cost outer product, which is what keeps large-d exact
	// evaluation affordable.
	gram := mat.NewDense(ds.D, ds.D)
	var frobSq float64
	type liveRow struct {
		t  int64
		v  []float64
		sv *mat.SparseVec // non-nil when the sparse form is cheaper
	}
	var live []liveRow
	head := 0
	gramAdd := func(lr liveRow, s float64) {
		if lr.sv != nil {
			lr.sv.OuterAddInto(gram, s)
		} else {
			mat.OuterAdd(gram, lr.v, s)
		}
	}

	var observeTime time.Duration
	var errSum, errMax float64
	evaluated := 0

	for i, e := range ds.Events {
		site := e.Site
		if opt.Sites != 0 {
			site = rng.Intn(sites)
		}
		start := time.Now()
		err := tr.TryObserve(site, distwindow.Row{T: e.Row.T, V: e.Row.V})
		observeTime += time.Since(start)
		if err != nil && !errors.Is(err, distwindow.ErrStale) {
			return Result{}, err
		}

		if !opt.SkipErr {
			lr := liveRow{t: e.Row.T, v: e.Row.V, sv: mat.ToSparse(e.Row.V, 0.25)}
			gramAdd(lr, 1)
			frobSq += e.Row.NormSq()
			live = append(live, lr)
			cut := e.Row.T - ds.W
			for head < len(live) && live[head].t <= cut {
				gramAdd(live[head], -1)
				frobSq -= mat.VecNormSq(live[head].v)
				head++
			}
			if head > 4096 && head*2 > len(live) {
				live = append([]liveRow(nil), live[head:]...)
				head = 0
			}
			if isQuery[i] && frobSq > 0 {
				e := covErrFast(gram, frobSq, tr)
				errSum += e
				if e > errMax {
					errMax = e
				}
				evaluated++
			}
		}
	}

	if opt.Workers > 0 {
		// Per-row timing only captured enqueue cost; the drain charges the
		// in-flight site work so the rate stays comparable to sequential.
		start := time.Now()
		tr.Drain()
		observeTime += time.Since(start)
	}

	res := Result{
		Dataset:    ds.Name,
		Protocol:   proto,
		Eps:        eps,
		Sites:      sites,
		TotalWords: tr.Stats().TotalWords(),
		SiteSpace:  tr.Stats().MaxSiteWords,
		Broadcasts: tr.Stats().Broadcasts,
		Queries:    evaluated,
	}
	if evaluated > 0 {
		res.AvgErr = errSum / float64(evaluated)
		res.MaxErr = errMax
	}
	span := ds.Events[n-1].Row.T - ds.Events[0].Row.T
	windows := float64(span) / float64(ds.W)
	if windows < 1 {
		windows = 1
	}
	res.MsgWords = float64(res.TotalWords) / windows
	if s := observeTime.Seconds(); s > 0 {
		res.UpdatesPerSec = float64(n) / s
	}
	return res, nil
}

// covErrFast computes ‖A_wᵀA_w − BᵀB‖₂/‖A_w‖_F² without forming BᵀB or
// factoring Ĉ: deterministic protocols expose Ĉ directly (SketchGram) and
// the power iteration runs on gram − Ĉ; sampling sketches apply as
// Bᵀ(B·x) over their rows. At WIKI-scale d this turns each query from an
// O(d³) eigendecomposition into ~30 mat-vecs.
func covErrFast(gram *mat.Dense, frobSq float64, tr *distwindow.Tracker) float64 {
	d := gram.Rows()
	if g, ok := tr.SketchGram(); ok {
		// Operator form avoids allocating the d×d difference — at WIKI's
		// full d=7047 that is ~400 MB per query.
		nrm := mat.OpSymNorm(d, func(x, y []float64) {
			gx := mat.MulVec(gram, x)
			hx := mat.MulVec(g, x)
			for i := range y {
				y[i] = gx[i] - hx[i]
			}
		})
		return nrm / frobSq
	}
	b := tr.Sketch()
	nrm := mat.OpSymNorm(d, func(x, y []float64) {
		gx := mat.MulVec(gram, x)
		bx := mat.MulVec(b, x)
		btbx := mat.MulTVec(b, bx)
		for i := range y {
			y[i] = gx[i] - btbx[i]
		}
	})
	return nrm / frobSq
}

// RunReplicated averages n runs with consecutive seeds — the paper runs
// each sampling experiment 3 times and reports the average communication
// and error. Deterministic protocols are seed-independent, so a single
// run is returned unchanged for them when n ≤ 1.
func RunReplicated(ds datagen.Dataset, proto distwindow.Protocol, eps float64, opt Options, n int) (Result, error) {
	if n <= 1 {
		return Run(ds, proto, eps, opt)
	}
	var agg Result
	for i := 0; i < n; i++ {
		o := opt
		o.Seed = opt.Seed + int64(i)*1_000_003
		r, err := Run(ds, proto, eps, o)
		if err != nil {
			return Result{}, err
		}
		if i == 0 {
			agg = r
			continue
		}
		agg.AvgErr += r.AvgErr
		agg.MaxErr += r.MaxErr
		agg.MsgWords += r.MsgWords
		agg.TotalWords += r.TotalWords
		agg.UpdatesPerSec += r.UpdatesPerSec
		if r.SiteSpace > agg.SiteSpace {
			agg.SiteSpace = r.SiteSpace
		}
	}
	f := float64(n)
	agg.AvgErr /= f
	agg.MaxErr /= f
	agg.MsgWords /= f
	agg.TotalWords /= int64(n)
	agg.UpdatesPerSec /= f
	return agg, nil
}

func maxSite(ds datagen.Dataset) int {
	m := 0
	for _, e := range ds.Events {
		if e.Site > m {
			m = e.Site
		}
	}
	return m
}

// String renders a result as one experiment-output row.
func (r Result) String() string {
	return fmt.Sprintf("%-10s %-12s eps=%-5.3g m=%-3d avg_err=%-8.4f max_err=%-8.4f msg=%-12.0f space=%-9d rate=%.0f/s",
		r.Dataset, r.Protocol, r.Eps, r.Sites, r.AvgErr, r.MaxErr, r.MsgWords, r.SiteSpace, r.UpdatesPerSec)
}
