package linalg

import (
	"math/rand"
	"sync"
	"testing"
)

// wideQubitSets returns random k-qubit placements (k=3 and k=4) on n
// qubits, in arbitrary order (the kernels must handle any permutation).
func wideQubitSets(n int, rng *rand.Rand) [][]int {
	pick := func(k int) []int {
		perm := rng.Perm(n)
		return append([]int(nil), perm[:k]...)
	}
	var sets [][]int
	for i := 0; i < 4; i++ {
		sets = append(sets, pick(3))
	}
	if n >= 4 {
		for i := 0; i < 4; i++ {
			sets = append(sets, pick(4))
		}
	}
	return sets
}

func applyVecWide(state []complex128, g *Matrix, qs []int) {
	if len(qs) == 3 {
		ApplyVec3(state, (*[64]complex128)(g.Data), qs[0], qs[1], qs[2])
	} else {
		ApplyVec4(state, (*[256]complex128)(g.Data), qs[0], qs[1], qs[2], qs[3])
	}
}

func TestWideKernelsMatchExpandedProduct(t *testing.T) {
	// k=3 and k=4 statevector kernels vs the ground-truth full-matrix
	// product.
	for _, n := range []int{4, 5, 6} {
		rng := rand.New(rand.NewSource(int64(400 + n)))
		state := make([]complex128, 1<<n)
		for i := range state {
			state[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, qs := range wideQubitSets(n, rng) {
			g := RandomUnitary(1<<len(qs), rng)
			want := ApplyMatrix(expand(n, g, qs), Vector(append([]complex128(nil), state...)))
			got := append([]complex128(nil), state...)
			applyVecWide(got, g, qs)
			for i := range want {
				if d := got[i] - want[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
					t.Errorf("n=%d qubits=%v: ApplyVec[%d] = %v, want %v", n, qs, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWideKernelsMatchGenericTabExactly(t *testing.T) {
	// The ScatterTab path is the randomized correctness oracle. The wide
	// kernels replicate its accumulation order and zero-skip, so agreement
	// is bit-for-bit, not just within tolerance.
	for _, n := range []int{4, 5, 6} {
		rng := rand.New(rand.NewSource(int64(500 + n)))
		// Drawn and unused: it keeps the statevector inputs below on
		// their established RNG stream.
		RandomUnitary(1<<n, rng)
		for _, qs := range wideQubitSets(n, rng) {
			g := RandomUnitary(1<<len(qs), rng)
			tab := NewScatterTab(qs)

			state := make([]complex128, 1<<n)
			for i := range state {
				state[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			specV := append([]complex128(nil), state...)
			genV := append([]complex128(nil), state...)
			applyVecWide(specV, g, qs)
			ApplyVecTab(genV, g.Data, tab)
			for i := range specV {
				if specV[i] != genV[i] {
					t.Fatalf("n=%d qubits=%v: vec entry %d: %v != %v", n, qs, i, specV[i], genV[i])
				}
			}
		}
	}
}

func TestApplyLeftIntoMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	for n := 3; n <= 5; n++ {
		m := RandomUnitary(1<<n, rng)
		g1 := RandomUnitary(2, rng)
		g2 := RandomUnitary(4, rng)

		dst := New(1<<n, 1<<n)
		ApplyLeft1Into(dst, m, (*[4]complex128)(g1.Data), n-1)
		inplace := m.Copy()
		ApplyLeft1(inplace, (*[4]complex128)(g1.Data), n-1)
		for i := range dst.Data {
			if dst.Data[i] != inplace.Data[i] {
				t.Fatalf("n=%d: ApplyLeft1Into entry %d: %v != %v", n, i, dst.Data[i], inplace.Data[i])
			}
		}

		ApplyLeft2Into(dst, m, (*[16]complex128)(g2.Data), n-1, 0)
		inplace = m.Copy()
		ApplyLeft2(inplace, (*[16]complex128)(g2.Data), n-1, 0)
		for i := range dst.Data {
			if dst.Data[i] != inplace.Data[i] {
				t.Fatalf("n=%d: ApplyLeft2Into entry %d: %v != %v", n, i, dst.Data[i], inplace.Data[i])
			}
		}
	}
}

func TestGatherProdBlocks2MatchesFullProduct(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(520 + n)))
		a := RandomUnitary(1<<n, rng)
		b := RandomUnitary(1<<n, rng)
		p := Mul(a, b)
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(n)
			qHi, qLo := perm[0], perm[1]
			hi, lo := 1<<qHi, 1<<qLo
			dst := make([]complex128, 4*(1<<n))
			GatherProdBlocks2(dst, a, b, qHi, qLo)
			gi := 0
			for base := 0; base < 1<<n; base++ {
				if base&(hi|lo) != 0 {
					continue
				}
				idx := [4]int{base, base | lo, base | hi, base | hi | lo}
				for li := 0; li < 4; li++ {
					for lj := 0; lj < 4; lj++ {
						want := p.At(idx[li], idx[lj])
						got := dst[gi+li*4+lj]
						if d := got - want; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
							t.Fatalf("n=%d q=(%d,%d) block base %d (%d,%d): %v, want %v",
								n, qHi, qLo, base, li, lj, got, want)
						}
					}
				}
				gi += 16
			}

			// TraceBlocks2 over the gathered blocks = Tr(P*G_full).
			g := RandomUnitary(4, rng)
			full := expand(n, g, []int{qHi, qLo})
			got := TraceBlocks2(dst, (*[16]complex128)(g.Data))
			want := Mul(p, full).Trace()
			if d := got - want; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("n=%d q=(%d,%d): TraceBlocks2 %v, want %v", n, qHi, qLo, got, want)
			}
		}
	}
}

func TestWideKernelAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := RandomUnitary(32, rng)
	dst := New(32, 32)
	g3 := RandomUnitary(8, rng)
	g4 := RandomUnitary(16, rng)
	g2 := RandomUnitary(4, rng)
	g1 := RandomUnitary(2, rng)
	state := make([]complex128, 32)
	state[0] = 1
	blocks := make([]complex128, 4*32)
	allocs := testing.AllocsPerRun(100, func() {
		ApplyVec3(state, (*[64]complex128)(g3.Data), 4, 2, 0)
		ApplyVec4(state, (*[256]complex128)(g4.Data), 4, 3, 1, 0)
		ApplyLeft1Into(dst, m, (*[4]complex128)(g1.Data), 3)
		ApplyLeft2Into(dst, m, (*[16]complex128)(g2.Data), 3, 1)
		GatherProdBlocks2(blocks, m, dst, 3, 1)
		TraceBlocks2(blocks, (*[16]complex128)(g2.Data))
		var rc, rt, w, v [4]complex128
		LayerGradContract(m, dst, 3, 1, &rc, &rt, &w, &v)
		GatherIdentityBlocks1(blocks[:2*32], m, 3)
		EmbedGate1(dst, (*[4]complex128)(g1.Data), 3)
	})
	if allocs != 0 {
		t.Errorf("wide kernels allocate %v times per run, want 0", allocs)
	}
}

func TestScatterTabConcurrentUsePanics(t *testing.T) {
	// The ownership check turns a silent scratch-buffer race into a
	// deterministic panic.
	rng := rand.New(rand.NewSource(9))
	m := RandomUnitary(8, rng)
	g := RandomUnitary(2, rng)
	tab := NewScatterTab([]int{1})
	tab.acquire() // simulate another goroutine mid-kernel
	defer tab.release()
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyLeftTab on a busy tab did not panic")
		}
	}()
	ApplyLeftTab(m, g.Data, tab)
}

func TestScatterTabPerGoroutineTabsRaceFree(t *testing.T) {
	// The documented safe pattern: one tab per worker. Run under -race this
	// exercises concurrent kernel calls on disjoint tabs and shared
	// read-only inputs (the pattern internal/sim's UnitaryWorkers uses).
	rng := rand.New(rand.NewSource(10))
	g := RandomUnitary(8, rng)
	src := RandomUnitary(32, rng)
	const workers = 4
	var wg sync.WaitGroup
	out := make([]*Matrix, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tab := NewScatterTab([]int{3, 1, 0})
			m := src.Copy()
			for i := 0; i < 8; i++ {
				ApplyLeftTab(m, g.Data, tab)
			}
			out[w] = m
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if d := MaxAbsDiff(out[0], out[w]); d != 0 {
			t.Fatalf("worker %d diverged from worker 0 by %g", w, d)
		}
	}
}

func TestLayerGradContractMatchesFullTrace(t *testing.T) {
	// Contract semantics: with P = A·B, trace2(W, D) = Tr(P·(D⊗Rt)·CX_full)
	// and trace2(V, D) = Tr(P·(Rc⊗D)·CX_full), for any 2x2 factor D. Build
	// the reference from full-space products.
	kron2 := func(x, y *[4]complex128) *Matrix {
		m := New(4, 4)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				for k := 0; k < 2; k++ {
					for l := 0; l < 2; l++ {
						m.Data[(i*2+k)*4+j*2+l] = x[i*2+j] * y[k*2+l]
					}
				}
			}
		}
		return m
	}
	trace2 := func(w, x *[4]complex128) complex128 {
		return w[0]*x[0] + w[1]*x[2] + w[2]*x[1] + w[3]*x[3]
	}
	for _, n := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(530 + n)))
		a := RandomUnitary(1<<n, rng)
		c := RandomUnitary(1<<n, rng)
		p := Mul(a, c)
		rand4 := func() *[4]complex128 {
			var r [4]complex128
			for i := range r {
				r[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			return &r
		}
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(n)
			qHi, qLo := perm[0], perm[1]
			rc, rt := rand4(), rand4()
			var w, v [4]complex128
			LayerGradContract(a, c, qHi, qLo, rc, rt, &w, &v)
			for d := 0; d < 2; d++ {
				dm := rand4()
				// dL = (D⊗Rt)·CX: CX on the right swaps columns 2 and 3.
				mkL := func(x, y *[4]complex128) *Matrix {
					l := kron2(x, y)
					for r := 0; r < 4; r++ {
						l.Data[r*4+2], l.Data[r*4+3] = l.Data[r*4+3], l.Data[r*4+2]
					}
					return expand(n, l, []int{qHi, qLo})
				}
				wantW := Mul(p, mkL(dm, rt)).Trace()
				if g := trace2(&w, dm); cabs2(g-wantW) > 1e-18*cabs2(wantW)+1e-18 {
					t.Fatalf("n=%d q=(%d,%d): control contract %v, want %v", n, qHi, qLo, g, wantW)
				}
				wantV := Mul(p, mkL(rc, dm)).Trace()
				if g := trace2(&v, dm); cabs2(g-wantV) > 1e-18*cabs2(wantV)+1e-18 {
					t.Fatalf("n=%d q=(%d,%d): target contract %v, want %v", n, qHi, qLo, g, wantV)
				}
			}
		}
	}
}

func cabs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

func TestGatherIdentityBlocks1MatchesGatherProd(t *testing.T) {
	// GatherIdentityBlocks1 is GatherProdBlocks1 with a = I, entry for entry.
	for _, n := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(540 + n)))
		b := RandomUnitary(1<<n, rng)
		ident := Identity(1 << n)
		for q := 0; q < n; q++ {
			want := make([]complex128, 2*(1<<n))
			got := make([]complex128, 2*(1<<n))
			GatherProdBlocks1(want, ident, b, q)
			GatherIdentityBlocks1(got, b, q)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%d entry %d: %v != %v", n, q, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEmbedGate1MatchesApplyToIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(550))
	for n := 1; n <= 4; n++ {
		g := RandomUnitary(2, rng)
		for q := 0; q < n; q++ {
			want := New(1<<n, 1<<n)
			ApplyLeft1Into(want, Identity(1<<n), (*[4]complex128)(g.Data), q)
			got := New(1<<n, 1<<n)
			// Pre-dirty dst: EmbedGate1 must overwrite every entry.
			for i := range got.Data {
				got.Data[i] = complex(1, 1)
			}
			EmbedGate1(got, (*[4]complex128)(g.Data), q)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("n=%d q=%d entry %d: %v != %v", n, q, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
