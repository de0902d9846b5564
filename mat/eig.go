package mat

import "math"

// Eigen holds the eigendecomposition of a symmetric matrix S = VᵀΛV where
// the rows of Vectors are orthonormal eigenvectors: S = Σᵢ λᵢ·vᵢᵀvᵢ.
// Values are sorted by decreasing value (not absolute value).
type Eigen struct {
	// Values are the eigenvalues in decreasing order.
	Values []float64
	// Vectors has the eigenvector for Values[i] in row i.
	Vectors *Dense
}

// qlIterMax bounds the implicit-shift QL iterations spent on one
// eigenvalue. Convergence is cubic, so finite input needs one to three;
// the bound exists so that non-finite input terminates (EISPACK's tql2
// uses the same limit).
const qlIterMax = 30

// EigSym computes the full eigendecomposition of the symmetric matrix s
// by Householder tridiagonalization followed by the implicit-shift QL
// algorithm (EISPACK tred2/tql2, in the form JAMA publishes).
// Asymmetric input is treated as its symmetrized part ½(S + Sᵀ).
//
// The solver is O(n³) with a small constant and backward stable: each
// computed eigenvalue is within about u·‖S‖₂ of an exact one (u = 2⁻⁵³,
// times a modest polynomial in n), and the eigenvectors are orthonormal
// to working precision. The accuracy is absolute, not relative: an
// eigenvalue far below ‖S‖ carries an error of order u·‖S‖. The protocols
// compare eigenvalues only against thresholds of order ε·‖A‖²_F, so
// absolute accuracy is what they need.
//
// Input holding NaN or ±Inf, or entries so large that intermediate sums
// overflow, does not hang or panic: every loop is bounded, and the
// returned values and vectors are then meaningless (typically NaN).
// Callers that need a meaningful result must reject such input first.
//
// EigSym allocates its working buffers fresh on every call; hot paths that
// decompose repeatedly should hold a Workspace and call EigSymInto.
func EigSym(s *Dense) Eigen {
	return EigSymInto(s, NewWorkspace())
}

// tred2 reduces the symmetric n×n matrix held row-major in w to
// tridiagonal form by Householder similarity transformations and
// accumulates the transformations in place. On return d holds the
// diagonal, e[1:] the subdiagonal (e[0] = 0), and w holds Vᵀ for the
// orthogonal V with VᵀSV tridiagonal.
//
// The buffer is read as Vᵀ throughout: the textbook V[r][c] is w[c*n+r].
// Because S is symmetric the input already reads the same either way, and
// this orientation puts every inner loop along a contiguous row of w.
func tred2(w, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale the row to avoid under/overflow in the Householder norm.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// Apply the similarity transformation to the remaining columns.
		wi := w[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			wi[j] = f
			g = e[j] + w[j*n+j]*f
			// k runs over j+1 … i−1; the re-slices let the compiler drop
			// the bounds checks.
			wj := w[j*n+j+1 : j*n+i]
			dk, ek := d[j+1:i], e[j+1:i]
			dk, ek = dk[:len(wj)], ek[:len(wj)]
			for k, x := range wj {
				g += x * dk[k]
				ek[k] += x * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			wj := w[j*n+j : j*n+i]
			dk, ek := d[j:i], e[j:i]
			dk, ek = dk[:len(wj)], ek[:len(wj)]
			for k := range wj {
				wj[k] -= f*ek[k] + g*dk[k]
			}
			d[j] = w[j*n+i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		h := d[i+1]
		wi1 := w[(i+1)*n : (i+1)*n+i+1]
		if h != 0 {
			for k, x := range wi1 {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				wj := w[j*n : j*n+i+1]
				axpyKernel(-Dot(wi1, wj), d[:len(wj)], wj)
			}
		}
		for k := range wi1 {
			wi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) left by tred2
// with implicit-shift QL iterations, rotating the rows of w (Vᵀ) along.
// On return d holds the eigenvalues, unsorted, and row i of w is the unit
// eigenvector for d[i]; e is left as scratch.
//
// The split search stops at n−1 and each eigenvalue gets at most
// qlIterMax iterations, so NaN or ±Inf input (on which no comparison
// converges) still terminates.
func tql2(w, d, e []float64, n int) {
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	const eps = 0x1p-52
	var f, tst1 float64
	for l := 0; l < n; l++ {
		// Find a negligible subdiagonal element.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		// m == l means d[l] is already an eigenvalue.
		for iter := 0; m > l && iter < qlIterMax; iter++ {
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the rotation into rows i and i+1 of Vᵀ.
				wi := w[i*n : i*n+n]
				wi1 := w[i*n+n : i*n+2*n]
				wi1 = wi1[:len(wi)]
				for k, x := range wi {
					y := wi1[k]
					wi1[k] = s*x + c*y
					wi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
}

// hypot is √(a²+b²). Where neither square can overflow and the larger
// cannot underflow it is the direct formula, within an ulp and cheaper
// than math.Hypot (tql2 calls it O(n²) times); elsewhere, NaN and ±Inf
// included, it is math.Hypot.
func hypot(a, b float64) float64 {
	m := math.Abs(a)
	if ab := math.Abs(b); ab > m {
		m = ab
	}
	if m >= 1e-150 && m <= 1e150 {
		return math.Sqrt(a*a + b*b)
	}
	return math.Hypot(a, b)
}

// Reconstruct returns Σᵢ values[i]·vᵢᵀvᵢ for the rows vᵢ of vectors —
// the inverse of EigSym up to floating-point error.
func (e Eigen) Reconstruct() *Dense {
	n := e.Vectors.cols
	out := NewDense(n, n)
	for i, lam := range e.Values {
		if lam == 0 {
			continue
		}
		addOuter(out.data, e.Vectors.Row(i), lam)
	}
	return out
}
