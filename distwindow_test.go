package distwindow

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

func testRows(n, d int, seed int64) []Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rows[i] = Row{T: int64(i + 1), V: v}
	}
	return rows
}

func TestNewAllProtocols(t *testing.T) {
	for _, p := range Protocols() {
		cfg := Config{Protocol: p, D: 4, W: 200, Eps: 0.25, Sites: 3, Ell: 16, Seed: 1}
		tr, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if tr.Config().Protocol != p {
			t.Fatalf("Config().Protocol = %q, want %q", tr.Config().Protocol, p)
		}
	}
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := New(Config{Protocol: "nope", D: 2, W: 10, Eps: 0.1, Sites: 1}); err == nil {
		t.Fatal("want error for unknown protocol")
	}
}

func TestNewInvalidConfig(t *testing.T) {
	if _, err := New(Config{Protocol: DA1, D: 0, W: 10, Eps: 0.1, Sites: 1}); err == nil {
		t.Fatal("want error for D=0")
	}
	if _, err := New(Config{Protocol: DA1, D: 2, W: 10, Eps: 0.1, Sites: 0}); err == nil {
		t.Fatal("want error for Sites=0")
	}
}

func TestEveryProtocolTracksTheWindow(t *testing.T) {
	// End-to-end: each protocol's sketch must stay within a loose error
	// bound of the exact union window on a Gaussian stream.
	const (
		d = 6
		w = int64(800)
	)
	rows := testRows(3000, d, 2)
	rng := rand.New(rand.NewSource(3))
	sites := make([]int, len(rows))
	for i := range sites {
		sites[i] = rng.Intn(3)
	}
	bounds := map[Protocol]float64{
		PWOR: 0.45, PWORAll: 0.45, PWORSimple: 0.45,
		ESWOR: 0.45, ESWORAll: 0.45,
		PWR: 0.6, ESWR: 0.6,
		DA1: 0.5, DA2: 0.7, DA2C: 0.7,
	}
	for _, p := range Protocols() {
		tr, err := New(Config{Protocol: p, D: d, W: w, Eps: 0.2, Sites: 3, Ell: 128, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		u := window.NewUnion(w, d)
		var sum float64
		n := 0
		for i, r := range rows {
			mustObserve(t, tr, sites[i], r)
			u.Add(stream.Row{T: r.T, V: r.V})
			if i > 800 && i%400 == 0 {
				sum += u.ErrOf(tr.Sketch())
				n++
			}
		}
		avg := sum / float64(n)
		if avg > bounds[p] {
			t.Errorf("%s: avg covariance error %v > %v", p, avg, bounds[p])
		}
		if tr.Stats().TotalWords() == 0 {
			t.Errorf("%s: no communication recorded", p)
		}
	}
}

func TestObserveValidation(t *testing.T) {
	tr, _ := New(Config{Protocol: DA1, D: 3, W: 100, Eps: 0.2, Sites: 2})
	if err := tr.TryObserve(5, Row{T: 1, V: []float64{1, 2, 3}}); !errors.Is(err, ErrSiteRange) {
		t.Fatalf("bad site: %v, want ErrSiteRange", err)
	}
	if err := tr.TryObserve(0, Row{T: 1, V: []float64{1}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("bad dim: %v, want ErrDimension", err)
	}
}

func TestAdvanceExpires(t *testing.T) {
	tr, _ := New(Config{Protocol: DA2, D: 3, W: 50, Eps: 0.2, Sites: 2})
	for i, r := range testRows(100, 3, 5) {
		mustObserve(t, tr, i%2, r)
	}
	tr.Advance(10_000)
	if mat.FrobSq(tr.Sketch()) > 1e-9 {
		t.Fatal("sketch should be empty after everything expires")
	}
}

func TestAggregateTracker(t *testing.T) {
	at, err := NewAggregate(Config{W: 500, Eps: 0.1, Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var items []struct {
		t int64
		w float64
	}
	for i := int64(1); i <= 2000; i++ {
		w := 1 + rng.Float64()
		at.Observe(rng.Intn(3), i, w)
		items = append(items, struct {
			t int64
			w float64
		}{i, w})
	}
	var truth float64
	for _, it := range items {
		if it.t > 2000-500 {
			truth += it.w
		}
	}
	if got := at.Estimate(); math.Abs(got-truth)/truth > 0.2 {
		t.Fatalf("aggregate estimate %v vs truth %v", got, truth)
	}
	if at.Stats().WordsUp == 0 {
		t.Fatal("aggregate tracker sent nothing")
	}
}

func TestAggregateTrackerAsCount(t *testing.T) {
	at, _ := NewAggregate(Config{W: 100, Eps: 0.1, Sites: 1})
	for i := int64(1); i <= 300; i++ {
		at.Observe(0, i, 1)
	}
	if got := at.Estimate(); math.Abs(got-100) > 20 {
		t.Fatalf("count estimate %v, want ≈100", got)
	}
}

// --- analytics helpers ---

func TestSketchPCARecoversDominantDirection(t *testing.T) {
	// Rows concentrated along e1 with noise: PCA component 0 ≈ ±e1.
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64(), rng.NormFloat64()}
	}
	b := mat.FromRows(rows)
	p := SketchPCA(b, 2)
	if p.Components.Rows() != 2 {
		t.Fatalf("k = %d, want 2", p.Components.Rows())
	}
	if c := math.Abs(p.Components.At(0, 0)); c < 0.95 {
		t.Fatalf("top component not aligned with e1: |v₀·e1| = %v", c)
	}
	if p.Values[0] <= p.Values[1] {
		t.Fatal("PCA values must be sorted")
	}
}

func TestSubspaceDistance(t *testing.T) {
	id := PCA{Components: mat.FromRows([][]float64{{1, 0, 0}})}
	same := PCA{Components: mat.FromRows([][]float64{{-1, 0, 0}})} // sign-flipped
	orth := PCA{Components: mat.FromRows([][]float64{{0, 1, 0}})}
	if d := SubspaceDistance(id, same); d > 1e-9 {
		t.Fatalf("identical subspaces distance %v", d)
	}
	if d := SubspaceDistance(id, orth); d < 0.99 {
		t.Fatalf("orthogonal subspaces distance %v", d)
	}
}

func TestAnomalyScorer(t *testing.T) {
	// Window data lives in span{e1, e2}; anomalies point along e3.
	rng := rand.New(rand.NewSource(8))
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 2, 0, 0}
	}
	sc := NewAnomalyScorer(mat.FromRows(rows), 2)
	if s := sc.Score([]float64{1, 1, 0, 0}); s > 0.05 {
		t.Fatalf("in-subspace point scored %v", s)
	}
	if s := sc.Score([]float64{0, 0, 1, 0}); s < 0.95 {
		t.Fatalf("orthogonal point scored %v", s)
	}
	if s := sc.Score([]float64{0, 0, 0, 0}); s != 0 {
		t.Fatalf("zero point scored %v", s)
	}
}

func TestLowRankApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64()}
	}
	b := mat.FromRows(rows)
	lr := LowRankApprox(b, 1)
	if lr.Rows() != 1 {
		t.Fatalf("rank = %d, want 1", lr.Rows())
	}
	// Rank-1 Gram must capture most of the dominant variance.
	full := mat.Gram(b)
	approx := mat.Gram(lr)
	if approx.At(0, 0) < 0.9*full.At(0, 0) {
		t.Fatal("rank-1 approximation lost the dominant direction")
	}
}

func TestProjectionEnergy(t *testing.T) {
	b := mat.FromRows([][]float64{{2, 0}, {0, 1}})
	if e := ProjectionEnergy(b, []float64{1, 0}); math.Abs(e-4) > 1e-12 {
		t.Fatalf("energy along e1 = %v, want 4", e)
	}
	if e := ProjectionEnergy(b, []float64{0, 3}); math.Abs(e-1) > 1e-12 {
		t.Fatalf("energy along e2 = %v, want 1 (direction is normalized)", e)
	}
	if ProjectionEnergy(b, []float64{0, 0}) != 0 {
		t.Fatal("zero direction has zero energy")
	}
}

func TestCovErrAndEffectiveEps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	a := mat.FromRows(rows)
	if e := CovErr(a, a.Clone()); e > 1e-10 {
		t.Fatalf("CovErr(A,A) = %v", e)
	}
	e, ok := EffectiveEps(a, a.Clone(), 0.1, 1)
	if !ok || e > 1e-10 {
		t.Fatalf("EffectiveEps = %v %v", e, ok)
	}
}

func TestFormatStats(t *testing.T) {
	s := Stats{WordsUp: 10, WordsDown: 5}
	out := FormatStats(s)
	if out == "" || len(out) < 10 {
		t.Fatalf("FormatStats too short: %q", out)
	}
}

func TestSketchPCAPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SketchPCA(mat.NewDense(1, 1), 0)
}

func TestDecayProtocolViaFacade(t *testing.T) {
	tr, err := New(Config{Protocol: Decay, D: 3, Eps: 0.2, Sites: 2, DecayGamma: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	for i := int64(1); i <= 800; i++ {
		mustObserve(t, tr, int(i)%2, Row{T: i, V: []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}})
	}
	if mat.FrobSq(tr.Sketch()) == 0 {
		t.Fatal("decay sketch empty")
	}
	if tr.Name() != "DECAY" {
		t.Fatalf("Name = %q", tr.Name())
	}
	// Decay to oblivion.
	tr.Advance(1_000_000)
	if f := mat.FrobSq(tr.Sketch()); f > 1e-12 {
		t.Fatalf("mass %v should have decayed away", f)
	}
}

func TestDecayProtocolRequiresGamma(t *testing.T) {
	if _, err := New(Config{Protocol: Decay, D: 3, Eps: 0.2, Sites: 2}); err == nil {
		t.Fatal("want error when DecayGamma unset")
	}
}

func TestMaxSkewReordersOutOfOrderRows(t *testing.T) {
	// The same stream delivered in order vs jittered: with MaxSkew the
	// sketches must match exactly (deterministic protocol).
	cfg := Config{Protocol: DA1, D: 3, W: 200, Eps: 0.2, Sites: 1, Seed: 1}
	rows := testRows(600, 3, 30)

	ref, _ := New(cfg)
	for _, r := range rows {
		mustObserve(t, ref, 0, r)
	}

	jcfg := cfg
	jcfg.MaxSkew = 16
	jit, _ := New(jcfg)
	rng := rand.New(rand.NewSource(31))
	// Jitter delivery order within a window of 8 positions.
	perm := append([]Row(nil), rows...)
	for i := 0; i+8 < len(perm); i += 8 {
		rng.Shuffle(8, func(a, b int) { perm[i+a], perm[i+b] = perm[i+b], perm[i+a] })
	}
	for _, r := range perm {
		mustObserve(t, jit, 0, r)
	}
	jit.FlushSkew()
	if got := jit.Metrics().SkewDropped; got != 0 {
		t.Fatalf("%d rows dropped within the skew bound", got)
	}
	if !ref.Sketch().Equal(jit.Sketch()) {
		t.Fatal("skew-buffered delivery diverged from in-order delivery")
	}
}

func TestMaxSkewDropsAncientRows(t *testing.T) {
	cfg := Config{Protocol: DA2, D: 2, W: 100, Eps: 0.2, Sites: 1, MaxSkew: 5}
	tr, _ := New(cfg)
	mustObserve(t, tr, 0, Row{T: 100, V: []float64{1, 0}})
	if err := tr.TryObserve(0, Row{T: 50, V: []float64{1, 0}}); !errors.Is(err, ErrStale) { // far beyond the horizon
		t.Fatalf("ancient row: %v, want ErrStale", err)
	}
	if got := tr.Metrics().SkewDropped; got != 1 {
		t.Fatalf("SkewDropped = %d, want 1", got)
	}
}

func TestAnalyticsEdgeCases(t *testing.T) {
	// SubspaceDistance with an empty basis is maximal.
	empty := PCA{Components: mat.NewDense(0, 3)}
	full := PCA{Components: mat.FromRows([][]float64{{1, 0, 0}})}
	if d := SubspaceDistance(empty, full); d != 1 {
		t.Fatalf("empty-basis distance = %v, want 1", d)
	}
	// SketchPCA with k beyond the available spectrum clamps.
	b := mat.FromRows([][]float64{{1, 0, 0}})
	p := SketchPCA(b, 5)
	if p.Components.Rows() != 1 {
		t.Fatalf("k should clamp to rank: %d", p.Components.Rows())
	}
	// LowRankApprox likewise.
	if lr := LowRankApprox(b, 9); lr.Rows() != 1 {
		t.Fatalf("LowRankApprox rows = %d", lr.Rows())
	}
}

func TestSkewConfigZeroIsDirect(t *testing.T) {
	tr, _ := New(Config{Protocol: DA1, D: 2, W: 100, Eps: 0.2, Sites: 1})
	// Without MaxSkew, FlushSkew is a no-op and SkewDropped stays 0.
	mustObserve(t, tr, 0, Row{T: 5, V: []float64{1, 0}})
	tr.FlushSkew()
	if tr.Metrics().SkewDropped != 0 {
		t.Fatal("no skew buffer should mean no drops")
	}
}
