package linalg

import (
	"math/rand"
	"testing"
)

// expand builds the full 2^n x 2^n matrix of a small gate on the listed
// qubits by scattering the gate entries, independently of the kernels
// under test.
func expand(n int, g *Matrix, qubits []int) *Matrix {
	k := len(qubits)
	dim := 1 << k
	pos := make([]int, k)
	for i, q := range qubits {
		pos[k-1-i] = q
	}
	var mask int
	for _, p := range pos {
		mask |= 1 << p
	}
	scatter := func(l int) int {
		o := 0
		for j := 0; j < k; j++ {
			if l&(1<<j) != 0 {
				o |= 1 << pos[j]
			}
		}
		return o
	}
	out := New(1<<n, 1<<n)
	for base := 0; base < 1<<n; base++ {
		if base&mask != 0 {
			continue
		}
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				out.Set(base|scatter(r), base|scatter(c), g.At(r, c))
			}
		}
	}
	return out
}

func randomQubitSets(n int, rng *rand.Rand) [][]int {
	var sets [][]int
	for q := 0; q < n; q++ {
		sets = append(sets, []int{q})
	}
	for i := 0; i < 4; i++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		sets = append(sets, []int{a, b})
	}
	return sets
}

func TestScatterTabOffsets(t *testing.T) {
	tab := NewScatterTab([]int{2, 0})
	// First listed qubit (2) is the MSB: local l = hi*2+lo maps hi->bit 2,
	// lo->bit 0.
	want := []int{0, 1, 4, 5}
	for l, w := range want {
		if tab.Offs[l] != w {
			t.Errorf("Offs[%d] = %d, want %d", l, tab.Offs[l], w)
		}
	}
	if tab.Mask != 5 {
		t.Errorf("Mask = %d, want 5", tab.Mask)
	}
}

func TestSpecializedKernelsMatchExpandedProduct(t *testing.T) {
	// k=1 and k=2 kernels vs the ground-truth full-matrix product, on
	// random unitaries across 3-5 qubits and random qubit placements.
	for _, n := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		m := RandomUnitary(1<<n, rng)
		for _, qs := range randomQubitSets(n, rng) {
			g := RandomUnitary(1<<len(qs), rng)
			full := expand(n, g, qs)

			left := m.Copy()
			if len(qs) == 1 {
				ApplyLeft1(left, (*[4]complex128)(g.Data), qs[0])
			} else {
				ApplyLeft2(left, (*[16]complex128)(g.Data), qs[0], qs[1])
			}
			if d := MaxAbsDiff(left, Mul(full, m)); d > 1e-9 {
				t.Errorf("n=%d qubits=%v: ApplyLeft diff %g", n, qs, d)
			}

			right := m.Copy()
			if len(qs) == 1 {
				ApplyRight1(right, (*[4]complex128)(g.Data), qs[0])
			} else {
				ApplyRight2(right, (*[16]complex128)(g.Data), qs[0], qs[1])
			}
			if d := MaxAbsDiff(right, Mul(m, full)); d > 1e-9 {
				t.Errorf("n=%d qubits=%v: ApplyRight diff %g", n, qs, d)
			}
		}
	}
}

func TestSpecializedKernelsMatchGenericTab(t *testing.T) {
	// The generic ScatterTab path is the oracle: specialized kernels must
	// agree with it to near machine precision.
	for _, n := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(200 + n)))
		m := RandomUnitary(1<<n, rng)
		for _, qs := range randomQubitSets(n, rng) {
			g := RandomUnitary(1<<len(qs), rng)
			tab := NewScatterTab(qs)

			specL, genL := m.Copy(), m.Copy()
			specR, genR := m.Copy(), m.Copy()
			if len(qs) == 1 {
				ApplyLeft1(specL, (*[4]complex128)(g.Data), qs[0])
				ApplyRight1(specR, (*[4]complex128)(g.Data), qs[0])
			} else {
				ApplyLeft2(specL, (*[16]complex128)(g.Data), qs[0], qs[1])
				ApplyRight2(specR, (*[16]complex128)(g.Data), qs[0], qs[1])
			}
			ApplyLeftTab(genL, g.Data, tab)
			ApplyRightTab(genR, g.Data, tab)

			if d := MaxAbsDiff(specL, genL); d > 1e-12 {
				t.Errorf("n=%d qubits=%v: left spec vs generic diff %g", n, qs, d)
			}
			if d := MaxAbsDiff(specR, genR); d > 1e-12 {
				t.Errorf("n=%d qubits=%v: right spec vs generic diff %g", n, qs, d)
			}
		}
	}
}

func TestVectorKernelsMatchMatrixApply(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		rng := rand.New(rand.NewSource(int64(300 + n)))
		state := make([]complex128, 1<<n)
		for i := range state {
			state[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, qs := range randomQubitSets(n, rng) {
			g := RandomUnitary(1<<len(qs), rng)
			full := expand(n, g, qs)

			want := ApplyMatrix(full, Vector(append([]complex128(nil), state...)))

			spec := append([]complex128(nil), state...)
			if len(qs) == 1 {
				ApplyVec1(spec, (*[4]complex128)(g.Data), qs[0])
			} else {
				ApplyVec2(spec, (*[16]complex128)(g.Data), qs[0], qs[1])
			}
			gen := append([]complex128(nil), state...)
			ApplyVecTab(gen, g.Data, NewScatterTab(qs))

			for i := range want {
				if d := spec[i] - want[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
					t.Fatalf("n=%d qubits=%v: ApplyVec[%d] = %v, want %v", n, qs, i, spec[i], want[i])
				}
				if d := gen[i] - spec[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
					t.Fatalf("n=%d qubits=%v: generic vs specialized differ at %d", n, qs, i)
				}
			}
		}
	}
}

func TestKernelAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := RandomUnitary(8, rng)
	g1 := RandomUnitary(2, rng)
	g2 := RandomUnitary(4, rng)
	tab := NewScatterTab([]int{2, 0})
	allocs := testing.AllocsPerRun(100, func() {
		ApplyLeft1(m, (*[4]complex128)(g1.Data), 1)
		ApplyRight1(m, (*[4]complex128)(g1.Data), 1)
		ApplyLeft2(m, (*[16]complex128)(g2.Data), 2, 0)
		ApplyRight2(m, (*[16]complex128)(g2.Data), 2, 0)
		ApplyLeftTab(m, g2.Data, tab)
		ApplyRightTab(m, g2.Data, tab)
	})
	if allocs != 0 {
		t.Errorf("kernels allocate %v times per run, want 0", allocs)
	}
}
