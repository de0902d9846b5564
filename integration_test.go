package distwindow_test

// Integration tests: every protocol against every dataset generator, plus
// adversarial stream shapes (bursts, silence, regime flips, degenerate
// sites). These exercise the full stack — datagen → facade → protocol →
// substrate — with the exact window as ground truth.

import (
	"math"
	"math/rand"
	"testing"

	"distwindow"
	"distwindow/internal/datagen"
	"distwindow/internal/stream"
	"distwindow/internal/window"
	"distwindow/mat"
)

// mustObserve feeds one row and fails the test on any delivery error.
func mustObserve(tb testing.TB, tr *distwindow.Tracker, site int, r distwindow.Row) {
	tb.Helper()
	if err := tr.TryObserve(site, r); err != nil {
		tb.Fatal(err)
	}
}

// replay drives a dataset through a tracker, returning average covariance
// error over periodic checkpoints in the steady state.
func replay(t *testing.T, tr *distwindow.Tracker, evs []stream.Event, w int64, d int, every int) float64 {
	t.Helper()
	u := window.NewUnion(w, d)
	var sum float64
	n := 0
	for i, e := range evs {
		mustObserve(t, tr, e.Site, distwindow.Row{T: e.Row.T, V: e.Row.V})
		u.Add(e.Row)
		if i > len(evs)/4 && i%every == 0 && u.FrobSq() > 0 {
			err := u.ErrOf(tr.Sketch())
			if math.IsNaN(err) || math.IsInf(err, 0) {
				t.Fatalf("invalid error at event %d", i)
			}
			sum += err
			n++
		}
	}
	if n == 0 {
		t.Fatal("no checkpoints evaluated")
	}
	return sum / float64(n)
}

func TestIntegrationProtocolDatasetMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix is slow")
	}
	pamap := datagen.PAMAPSim(datagen.Config{N: 6000, RowsPerWindow: 1500, Sites: 6, Seed: 1})
	synth := datagen.Synthetic(24, datagen.Config{N: 6000, RowsPerWindow: 1500, Sites: 6, Seed: 2})
	wiki := datagen.WikiSim(64, datagen.Config{N: 5000, RowsPerWindow: 1000, Sites: 6, Seed: 3})
	protos := []distwindow.Protocol{
		distwindow.PWOR, distwindow.PWORAll, distwindow.ESWOR, distwindow.ESWORAll,
		distwindow.DA1, distwindow.DA2, distwindow.DA2C,
	}
	// Loose smoke bounds: sampling on WIKI-sim's extreme skew with a small
	// ℓ is noisy; the point is end-to-end sanity, shape checks live in the
	// harness.
	bound := map[string]float64{"PAMAP-sim": 0.40, "SYNTHETIC": 0.40, "WIKI-sim": 0.60}
	for _, ds := range []datagen.Dataset{pamap, synth, wiki} {
		for _, p := range protos {
			tr, err := distwindow.New(distwindow.Config{
				Protocol: p, D: ds.D, W: ds.W, Eps: 0.15, Sites: 6, Ell: 192, Seed: 7,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, p, err)
			}
			avg := replay(t, tr, ds.Events, ds.W, ds.D, 500)
			if avg > bound[ds.Name] {
				t.Errorf("%s/%s: avg err %.4f > %.2f", ds.Name, p, avg, bound[ds.Name])
			}
		}
	}
}

func TestIntegrationBurstThenSilence(t *testing.T) {
	// A burst of rows, then a long silent gap that expires everything,
	// then a second burst: the sketch must follow both transitions.
	const d = 5
	w := int64(1000)
	for _, p := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA1, distwindow.DA2} {
		tr, err := distwindow.New(distwindow.Config{Protocol: p, D: d, W: w, Eps: 0.2, Sites: 3, Ell: 64, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		u := window.NewUnion(w, d)
		mkRow := func(tt int64) stream.Row {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			return stream.Row{T: tt, V: v}
		}
		for i := int64(1); i <= 800; i++ {
			r := mkRow(i)
			mustObserve(t, tr, rng.Intn(3), distwindow.Row{T: r.T, V: r.V})
			u.Add(r)
		}
		// Silence: jump far ahead.
		tr.Advance(50_000)
		u.Advance(50_000)
		if f := mat.FrobSq(tr.Sketch()); f > 1e-6 {
			t.Errorf("%s: sketch mass %v after silence", p, f)
		}
		// Second burst at the new epoch.
		for i := int64(50_001); i <= 50_600; i++ {
			r := mkRow(i)
			mustObserve(t, tr, rng.Intn(3), distwindow.Row{T: r.T, V: r.V})
			u.Add(r)
		}
		if err := u.ErrOf(tr.Sketch()); err > 0.5 {
			t.Errorf("%s: post-gap error %v", p, err)
		}
	}
}

func TestIntegrationSingleSite(t *testing.T) {
	// m=1 degenerates to the centralized sliding-window problem.
	for _, p := range []distwindow.Protocol{distwindow.PWORAll, distwindow.DA1, distwindow.DA2} {
		tr, err := distwindow.New(distwindow.Config{Protocol: p, D: 4, W: 500, Eps: 0.2, Sites: 1, Ell: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		u := window.NewUnion(500, 4)
		for i := int64(1); i <= 2000; i++ {
			v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			mustObserve(t, tr, 0, distwindow.Row{T: i, V: v})
			u.Add(stream.Row{T: i, V: v})
		}
		if err := u.ErrOf(tr.Sketch()); err > 0.5 {
			t.Errorf("%s single-site error %v", p, err)
		}
	}
}

func TestIntegrationAllTrafficToOneSite(t *testing.T) {
	// Pathological assignment: 10 sites configured, all rows to site 0.
	for _, p := range []distwindow.Protocol{distwindow.PWOR, distwindow.DA2} {
		tr, err := distwindow.New(distwindow.Config{Protocol: p, D: 4, W: 500, Eps: 0.2, Sites: 10, Ell: 48, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		u := window.NewUnion(500, 4)
		for i := int64(1); i <= 1500; i++ {
			v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			mustObserve(t, tr, 0, distwindow.Row{T: i, V: v})
			u.Add(stream.Row{T: i, V: v})
		}
		if err := u.ErrOf(tr.Sketch()); err > 0.5 {
			t.Errorf("%s skewed-assignment error %v", p, err)
		}
	}
}

func TestIntegrationRegimeFlip(t *testing.T) {
	// The window matrix rotates to an orthogonal subspace mid-stream; once
	// the old regime expires the sketch must reflect only the new one.
	const d = 6
	w := int64(600)
	tr, err := distwindow.New(distwindow.Config{Protocol: distwindow.DA2, D: d, W: w, Eps: 0.1, Sites: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := int64(1); i <= 1500; i++ {
		v := make([]float64, d)
		if i <= 700 {
			v[0] = rng.NormFloat64() * 3 // regime A: axis 0
		} else {
			v[d-1] = rng.NormFloat64() * 3 // regime B: axis d−1
		}
		mustObserve(t, tr, rng.Intn(4), distwindow.Row{T: i, V: v})
	}
	b := tr.Sketch()
	g := mat.Gram(b)
	if g.At(0, 0) > 0.05*g.At(d-1, d-1) {
		t.Fatalf("old regime energy %v should have expired (new %v)", g.At(0, 0), g.At(d-1, d-1))
	}
}

func TestIntegrationDuplicateTimestamps(t *testing.T) {
	// Many rows can share one timestamp (batch arrivals).
	tr, err := distwindow.New(distwindow.Config{Protocol: distwindow.DA1, D: 3, W: 100, Eps: 0.2, Sites: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	u := window.NewUnion(100, 3)
	for i := int64(1); i <= 300; i++ {
		ts := (i / 5) + 1 // 5 rows per tick
		v := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		mustObserve(t, tr, int(i)%2, distwindow.Row{T: ts, V: v})
		u.Add(stream.Row{T: ts, V: v})
	}
	if err := u.ErrOf(tr.Sketch()); err > 0.6 {
		t.Fatalf("duplicate-timestamp error %v", err)
	}
}

func TestIntegrationZeroRows(t *testing.T) {
	// All-zero rows carry no covariance mass and must not break anything.
	for _, p := range []distwindow.Protocol{distwindow.PWOR, distwindow.ESWOR, distwindow.DA1, distwindow.DA2} {
		tr, err := distwindow.New(distwindow.Config{Protocol: p, D: 3, W: 100, Eps: 0.2, Sites: 2, Ell: 8, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 200; i++ {
			v := []float64{0, 0, 0}
			if i%3 == 0 {
				v = []float64{1, 0, 0}
			}
			mustObserve(t, tr, int(i)%2, distwindow.Row{T: i, V: v})
		}
		b := tr.Sketch()
		if b.Cols() != 3 {
			t.Fatalf("%s: bad sketch shape", p)
		}
	}
}

func TestIntegrationSamplingSeedsGiveDifferentSamplesSameGuarantee(t *testing.T) {
	ds := datagen.Synthetic(10, datagen.Config{N: 3000, RowsPerWindow: 800, Sites: 4, Seed: 12})
	var errs []float64
	for seed := int64(0); seed < 3; seed++ {
		tr, err := distwindow.New(distwindow.Config{
			Protocol: distwindow.PWORAll, D: ds.D, W: ds.W, Eps: 0.2, Sites: 4, Ell: 128, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, replay(t, tr, ds.Events, ds.W, ds.D, 400))
	}
	for _, e := range errs {
		if e > 0.4 {
			t.Fatalf("seed-varied errors %v exceed bound", errs)
		}
	}
}
