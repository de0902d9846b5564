package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// eigKinds builds the matrix families of the EigSym property test. Each
// is symmetric n×n; several have repeated or zero eigenvalues, which is
// where a tridiagonal solver's deflation and a Jacobi solver's rotations
// behave most differently.
var eigKinds = []struct {
	name string
	make func(n int, rng *rand.Rand) *Dense
}{
	{"random", func(n int, rng *rand.Rand) *Dense { return randSym(n, rng) }},
	{"rank-deficient", func(n int, rng *rand.Rand) *Dense {
		// G·Gᵀ with G n×⌊n/2⌋: half the spectrum is exactly zero.
		g := NewDense(n, n/2)
		for i := range g.data {
			g.data[i] = rng.NormFloat64()
		}
		return Gram(g.T())
	}},
	{"diagonal", func(n int, rng *rand.Rand) *Dense {
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			m.data[i*n+i] = rng.NormFloat64()
		}
		return m
	}},
	{"c-identity", func(n int, rng *rand.Rand) *Dense {
		m := Identity(n)
		ScaleInPlace(m, 3.5)
		return m
	}},
	{"block-repeated", func(n int, rng *rand.Rand) *Dense {
		// One random 3×3 block repeated down the diagonal: every
		// eigenvalue of the block has multiplicity ≈ n/3.
		b := randSym(3, rng)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i - i%3; j < n && j < i-i%3+3; j++ {
				m.data[i*n+j] = b.data[(i%3)*3+j%3]
			}
		}
		return m
	}},
	{"zero", func(n int, rng *rand.Rand) *Dense { return NewDense(n, n) }},
	{"graded", func(n int, rng *rand.Rand) *Dense {
		// Q·diag(1 … 1e-12)·Qᵀ with Haar-random Q: eigenvalues spread
		// geometrically over twelve decades.
		q := RandomOrthonormal(n, rng)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			lam := 1.0
			if n > 1 {
				lam = math.Pow(10, -12*float64(i)/float64(n-1))
			}
			addOuter(m.data, q.Col(i), lam)
		}
		return m
	}},
}

// checkEigen asserts the decomposition contract on e for the symmetric
// matrix s at absolute tolerance tol·scale, scale = ‖s‖_F: decreasing
// values, ‖s − VᵀΛV‖_F ≤ tol·scale and ‖VVᵀ − I‖_max ≤ tol.
func checkEigen(t *testing.T, s *Dense, e Eigen, tol float64) {
	t.Helper()
	n := s.rows
	if len(e.Values) != n || e.Vectors.rows != n || e.Vectors.cols != n {
		t.Fatalf("shape: %d values, %dx%d vectors for n=%d", len(e.Values), e.Vectors.rows, e.Vectors.cols, n)
	}
	for i := 1; i < n; i++ {
		if e.Values[i] > e.Values[i-1] {
			t.Fatalf("values not decreasing at %d: %v > %v", i, e.Values[i], e.Values[i-1])
		}
	}
	scale := Frob(s)
	if r := Frob(Sub(s, e.Reconstruct())); r > tol*scale {
		t.Fatalf("‖S − VᵀΛV‖_F = %g > %g·%g", r, tol, scale)
	}
	if !IsOrthonormalRows(e.Vectors, tol) {
		t.Fatalf("‖VVᵀ − I‖_max > %g", tol)
	}
}

// TestEigSymMatchesJacobiOracle is the seeded property test of EigSym
// against the Jacobi oracle over sizes and matrix families.
func TestEigSymMatchesJacobiOracle(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(2017))
	for _, n := range []int{1, 2, 3, 8, 32, 64} {
		for _, k := range eigKinds {
			t.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(t *testing.T) {
				s := k.make(n, rng)
				e := EigSym(s)
				checkEigen(t, s, e, tol)
				want := jacobiEigSym(s)
				scale := Frob(s)
				for i, v := range e.Values {
					if d := math.Abs(v - want.Values[i]); d > tol*scale {
						t.Fatalf("λ[%d] = %v, oracle %v (|Δ| = %g > %g·%g)", i, v, want.Values[i], d, tol, scale)
					}
				}
			})
		}
	}
}

// TestEigSymNonFiniteTerminates feeds NaN, ±Inf and near-MaxFloat64
// entries and requires EigSym to return — bounded loops, no panic —
// with correctly shaped output. The values are unspecified (see EigSym).
func TestEigSymNonFiniteTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	poison := []struct {
		name string
		set  func(m *Dense)
	}{
		{"NaN", func(m *Dense) { m.Set(1, 2, math.NaN()); m.Set(2, 1, math.NaN()) }},
		{"+Inf", func(m *Dense) { m.Set(0, 0, math.Inf(1)) }},
		{"-Inf", func(m *Dense) { m.Set(3, 1, math.Inf(-1)); m.Set(1, 3, math.Inf(-1)) }},
		{"Inf-Inf", func(m *Dense) { m.Set(0, 0, math.Inf(1)); m.Set(4, 4, math.Inf(-1)) }},
		{"all-NaN", func(m *Dense) {
			for i := range m.data {
				m.data[i] = math.NaN()
			}
		}},
		{"near-max", func(m *Dense) {
			for i := range m.data {
				m.data[i] = math.Copysign(math.MaxFloat64*0.9, m.data[i])
			}
		}},
	}
	for _, n := range []int{5, 16} {
		for _, p := range poison {
			s := randSym(n, rng)
			p.set(s)
			done := make(chan interface{}, 1)
			go func() {
				defer func() { done <- recover() }()
				e := EigSymInto(s, NewWorkspace())
				if len(e.Values) != s.rows || e.Vectors.rows != s.rows {
					panic("mis-shaped output")
				}
			}()
			select {
			case r := <-done:
				if r != nil {
					t.Fatalf("%s n=%d: panic %v", p.name, s.rows, r)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s n=%d: EigSym did not return", p.name, s.rows)
			}
		}
	}
}

// TestEigSymSteadyStateAllocs pins the two hot decompositions at the
// sizes the protocols run (a 32×32 Gram, and an FD shrink of a 40×32
// buffer through the d×d route) to zero allocations per call.
func TestEigSymSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ws := NewWorkspace()
	sym := wsRandSym(rng, 32)
	tall := wsRandDense(rng, 40, 32)
	EigSymInto(sym, ws)
	ThinSVDNoU(tall, ws)
	if n := testing.AllocsPerRun(20, func() { EigSymInto(sym, ws) }); n != 0 {
		t.Errorf("EigSymInto 32×32: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ThinSVDNoU(tall, ws) }); n != 0 {
		t.Errorf("ThinSVDNoU 40×32: %v allocs/op, want 0", n)
	}
}

// FuzzEigSym decodes arbitrary bytes into an n×n matrix (n ≤ 16, entries
// as raw float64 bits) and requires EigSym to return without panicking.
// When every entry is zero or of magnitude in [1e-30, 1e30] it must also
// meet the decomposition contract on the symmetrized input. Wider spreads
// (1e110 between entries is enough) push the squared Householder terms of
// the small entries into subnormal range, where orthogonality is lost to
// underflow, not to the algorithm.
func FuzzEigSym(f *testing.F) {
	f.Add([]byte{3})
	f.Add(append([]byte{2}, make([]byte, 72)...))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})  // NaN
	f.Add([]byte{15, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf, n=16
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		n := 1 + int(b[0])%16
		b = b[1:]
		s := NewDense(n, n)
		checkable := true
		for i := range s.data {
			if len(b) < 8 {
				break
			}
			var bits uint64
			for k := 0; k < 8; k++ {
				bits |= uint64(b[k]) << (8 * k)
			}
			b = b[8:]
			x := math.Float64frombits(bits)
			s.data[i] = x
			if a := math.Abs(x); a != 0 && !(a >= 1e-30 && a <= 1e30) {
				checkable = false
			}
		}
		e := EigSym(s)
		if !checkable {
			return
		}
		sym := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sym.data[i*n+j] = 0.5 * (s.data[i*n+j] + s.data[j*n+i])
			}
		}
		checkEigen(t, sym, e, 1e-12)
	})
}
