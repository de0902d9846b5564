package mat

import "math"

// This file keeps the cyclic Jacobi eigensolver as a test-only oracle for
// EigSym: slow (its rotations walk columns with stride n) but simple and
// independently derived, so agreement between the two is evidence for
// both.

// jacobiEigSym is the Jacobi oracle's counterpart of EigSym: it
// symmetrizes a copy of s, diagonalizes it with cyclic Jacobi sweeps, and
// returns eigenvalues in decreasing order with eigenvectors as rows.
func jacobiEigSym(s *Dense) Eigen {
	n := s.rows
	a := s.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (a.data[i*n+j] + a.data[j*n+i])
			a.data[i*n+j] = v
			a.data[j*n+i] = v
		}
	}
	v := Identity(n)
	jacobiEig(a, v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		k := idx[i]
		key := a.data[k*n+k]
		j := i - 1
		for j >= 0 && a.data[idx[j]*n+idx[j]] < key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
	eig := Eigen{Values: make([]float64, n), Vectors: NewDense(n, n)}
	for r, i := range idx {
		eig.Values[r] = a.data[i*n+i]
		for j := 0; j < n; j++ {
			eig.Vectors.data[r*n+j] = v.data[j*n+i]
		}
	}
	return eig
}

// jacobiEig runs cyclic Jacobi sweeps on the symmetric matrix a in place,
// accumulating the rotations into v (whose columns become eigenvectors).
func jacobiEig(a, v *Dense) {
	n := a.rows
	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += a.data[i*n+j] * a.data[i*n+j]
			}
		}
		return s
	}
	var frob float64
	for _, x := range a.data {
		frob += x * x
	}
	tol := 1e-28 * (frob + 1e-300)

	for sweep := 0; sweep < jacobiSweepsMax && offDiag() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.data[p*n+q]
				if apq == 0 {
					continue
				}
				app := a.data[p*n+p]
				aqq := a.data[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e150 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				rotate(a, v, p, q, c, sn)
			}
		}
	}
}

// rotate applies the Jacobi rotation J(p,q,θ) to a (two-sided) and
// accumulates it into v (one-sided, columns).
func rotate(a, v *Dense, p, q int, c, s float64) {
	n := a.rows
	for i := 0; i < n; i++ {
		aip := a.data[i*n+p]
		aiq := a.data[i*n+q]
		a.data[i*n+p] = c*aip - s*aiq
		a.data[i*n+q] = s*aip + c*aiq
	}
	for j := 0; j < n; j++ {
		apj := a.data[p*n+j]
		aqj := a.data[q*n+j]
		a.data[p*n+j] = c*apj - s*aqj
		a.data[q*n+j] = s*apj + c*aqj
	}
	for i := 0; i < n; i++ {
		vip := v.data[i*n+p]
		viq := v.data[i*n+q]
		v.data[i*n+p] = c*vip - s*viq
		v.data[i*n+q] = s*vip + c*viq
	}
}
