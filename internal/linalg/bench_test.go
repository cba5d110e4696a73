package linalg

import (
	"math/rand"
	"testing"
)

func BenchmarkMul16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandomUnitary(16, rng)
	y := RandomUnitary(16, rng)
	dst := New(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

func BenchmarkKron4x4(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandomUnitary(4, rng)
	y := RandomUnitary(4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kron(x, y)
	}
}

func BenchmarkHSDistance16(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := RandomUnitary(16, rng)
	y := RandomUnitary(16, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HSDistance(x, y)
	}
}

func BenchmarkRandomUnitary8(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		RandomUnitary(8, rng)
	}
}

// Specialized vs generic gate-apply kernels on a 16x16 (4-qubit) matrix:
// the pairs below share workloads, so their ns/op ratio is the dispatch
// win of the unrolled k=1/k=2 paths over the ScatterTab fallback.

func benchKernelMatrices(b *testing.B, k int) (*Matrix, []complex128) {
	rng := rand.New(rand.NewSource(5))
	m := RandomUnitary(16, rng)
	g := RandomUnitary(1<<k, rng)
	b.ReportAllocs()
	b.ResetTimer()
	return m, g.Data
}

func BenchmarkApplyLeft1Unrolled(b *testing.B) {
	m, g := benchKernelMatrices(b, 1)
	for i := 0; i < b.N; i++ {
		ApplyLeft1(m, (*[4]complex128)(g), 2)
	}
}

func BenchmarkApplyLeft1Generic(b *testing.B) {
	m, g := benchKernelMatrices(b, 1)
	tab := NewScatterTab([]int{2})
	for i := 0; i < b.N; i++ {
		ApplyLeftTab(m, g, tab)
	}
}

func BenchmarkApplyLeft2Unrolled(b *testing.B) {
	m, g := benchKernelMatrices(b, 2)
	for i := 0; i < b.N; i++ {
		ApplyLeft2(m, (*[16]complex128)(g), 3, 1)
	}
}

func BenchmarkApplyLeft2Generic(b *testing.B) {
	m, g := benchKernelMatrices(b, 2)
	tab := NewScatterTab([]int{3, 1})
	for i := 0; i < b.N; i++ {
		ApplyLeftTab(m, g, tab)
	}
}

func BenchmarkApplyRight2Unrolled(b *testing.B) {
	m, g := benchKernelMatrices(b, 2)
	for i := 0; i < b.N; i++ {
		ApplyRight2(m, (*[16]complex128)(g), 3, 1)
	}
}

func BenchmarkApplyRight2Generic(b *testing.B) {
	m, g := benchKernelMatrices(b, 2)
	tab := NewScatterTab([]int{3, 1})
	for i := 0; i < b.N; i++ {
		ApplyRightTab(m, g, tab)
	}
}

func BenchmarkApplyVec2Unrolled(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	state := make([]complex128, 1<<10)
	state[0] = 1
	g := RandomUnitary(4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyVec2(state, (*[16]complex128)(g.Data), 7, 3)
	}
}

func BenchmarkApplyVec2Generic(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	state := make([]complex128, 1<<10)
	state[0] = 1
	g := RandomUnitary(4, rng)
	tab := NewScatterTab([]int{7, 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyVecTab(state, g.Data, tab)
	}
}

// Wide statevector kernels (k=3/k=4) vs the ScatterTab fallback they
// replace. The acceptance bar for this layer is 0 allocs/op on the
// unrolled paths; the Generic pair still allocates nothing per call but
// pays the tab's pointer-chasing (and, at the sim call sites they replace,
// a NewScatterTab allocation per gate application).

func BenchmarkApplyVec3Unrolled(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	state := make([]complex128, 1<<10)
	state[0] = 1
	g := RandomUnitary(8, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyVec3(state, (*[64]complex128)(g.Data), 7, 3, 1)
	}
}

func BenchmarkApplyVec3Generic(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	state := make([]complex128, 1<<10)
	state[0] = 1
	g := RandomUnitary(8, rng)
	tab := NewScatterTab([]int{7, 3, 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyVecTab(state, g.Data, tab)
	}
}

func BenchmarkApplyVec4Unrolled(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	state := make([]complex128, 1<<10)
	state[0] = 1
	g := RandomUnitary(16, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyVec4(state, (*[256]complex128)(g.Data), 7, 5, 3, 1)
	}
}

func BenchmarkGatherProdBlocks2(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := RandomUnitary(16, rng)
	c := RandomUnitary(16, rng)
	dst := make([]complex128, 4*16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherProdBlocks2(dst, a, c, 3, 1)
	}
}

func BenchmarkLayerGradContract(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := RandomUnitary(8, rng)
	c := RandomUnitary(8, rng)
	var rc, rt, w, v [4]complex128
	for i := range rc {
		rc[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		rt[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LayerGradContract(a, c, 2, 0, &rc, &rt, &w, &v)
	}
}
