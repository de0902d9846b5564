package mat

import (
	"math/rand"
	"testing"
)

func benchMat(n, d int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(n, d)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMul128(b *testing.B) {
	x := benchMat(128, 128, 1)
	y := benchMat(128, 128, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkGram64x512(b *testing.B) {
	a := benchMat(64, 512, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Gram(a)
	}
}

func BenchmarkThinSVDWide32x512(b *testing.B) {
	a := benchMat(32, 512, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ThinSVD(a)
	}
}

func BenchmarkThinSVDTall512x32(b *testing.B) {
	a := benchMat(512, 32, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ThinSVD(a)
	}
}

func BenchmarkEigSym64(b *testing.B) {
	s := Gram(benchMat(128, 64, 6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EigSym(s)
	}
}

func BenchmarkSymSpectralNorm256(b *testing.B) {
	s := Gram(benchMat(64, 256, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SymSpectralNorm(s)
	}
}

func BenchmarkHouseholderQR128(b *testing.B) {
	a := benchMat(128, 64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HouseholderQR(a)
	}
}

func BenchmarkPSDSqrt64(b *testing.B) {
	c := Gram(benchMat(128, 64, 9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PSDSqrt(c)
	}
}

// BenchmarkEigSym32 decomposes a 32×32 Gram on a reused workspace: the
// per-report and per-shrink size of the protocols' default sketches.
func BenchmarkEigSym32(b *testing.B) {
	s := Gram(benchMat(64, 32, 10))
	ws := NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EigSymInto(s, ws)
	}
}

// BenchmarkThinSVDNoU40x32 is one Frequent Directions shrink of a 40×32
// buffer through the d×d Gram route.
func BenchmarkThinSVDNoU40x32(b *testing.B) {
	a := benchMat(40, 32, 11)
	ws := NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ThinSVDNoU(a, ws)
	}
}
