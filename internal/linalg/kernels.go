// Specialized gate-application kernels. These are the hot inner loops of
// synthesis (internal/synth) and simulation (internal/sim): applying a
// small k-qubit gate to a full matrix (from the left or the right) or to a
// statevector, without expanding the gate to the full 2^n space and
// without allocating.
//
// The k=1 (2x2) and k=2 (4x4) cases are fully unrolled; the generic path
// uses a precomputed ScatterTab so the per-call index math from the naive
// implementation is hoisted to construction time. The generic path is the
// correctness oracle for the specialized kernels (see kernels_test.go).
//
// Gate-matrix convention (matches package gate): within a k-qubit gate the
// FIRST listed qubit is the most significant local bit.
package linalg

import "sync/atomic"

// ScatterTab precomputes the bit-scatter tables needed to apply a k-qubit
// gate on the listed qubits of an n-qubit object. Offs[l] is the global
// bit pattern of local basis index l, so the global index of local l
// within a group is base|Offs[l].
//
// A ScatterTab owns scratch buffers (idx, in) and is NOT safe for
// concurrent use: two goroutines sharing one tab silently corrupt each
// other's gather buffers. Parallel call sites (e.g. internal/sim's
// UnitaryWorkers over internal/par) must build one tab per worker. Every
// Tab kernel asserts single ownership with a cheap atomic check and panics
// on overlap — the race detector would also flag the data race, but the
// panic makes the misuse deterministic even in non-race builds.
type ScatterTab struct {
	K, Dim int
	Mask   int
	Offs   []int
	idx    []int
	in     []complex128
	busy   uint32
}

// acquire marks the tab in-use for the duration of one kernel call.
func (t *ScatterTab) acquire() {
	if !atomic.CompareAndSwapUint32(&t.busy, 0, 1) {
		panic("linalg: ScatterTab used concurrently; build one tab per goroutine")
	}
}

func (t *ScatterTab) release() {
	atomic.StoreUint32(&t.busy, 0)
}

// NewScatterTab builds the scatter table for a gate on the listed qubits
// (first listed = most significant local bit).
func NewScatterTab(qubits []int) *ScatterTab {
	k := len(qubits)
	dim := 1 << k
	t := &ScatterTab{
		K:    k,
		Dim:  dim,
		Offs: make([]int, dim),
		idx:  make([]int, dim),
		in:   make([]complex128, dim),
	}
	pos := make([]int, k)
	for i, q := range qubits {
		pos[k-1-i] = q
	}
	for _, p := range pos {
		t.Mask |= 1 << p
	}
	for l := 0; l < dim; l++ {
		off := 0
		for j := 0; j < k; j++ {
			if l&(1<<j) != 0 {
				off |= 1 << pos[j]
			}
		}
		t.Offs[l] = off
	}
	return t
}

// ApplyLeft1 computes m <- G_full*m in place for a 2x2 gate g on qubit q.
func ApplyLeft1(m *Matrix, g *[4]complex128, q int) {
	bit := 1 << q
	a, b, c, d := g[0], g[1], g[2], g[3]
	cols := m.Cols
	for base := 0; base < m.Rows; base++ {
		if base&bit != 0 {
			continue
		}
		r0 := m.Data[base*cols : base*cols+cols]
		r1 := m.Data[(base|bit)*cols : (base|bit)*cols+cols]
		for j, v0 := range r0 {
			v1 := r1[j]
			r0[j] = a*v0 + b*v1
			r1[j] = c*v0 + d*v1
		}
	}
}

// ApplyLeft2 computes m <- G_full*m in place for a 4x4 gate g on qubits
// (qHi, qLo), qHi being the most significant local bit.
func ApplyLeft2(m *Matrix, g *[16]complex128, qHi, qLo int) {
	hi, lo := 1<<qHi, 1<<qLo
	mask := hi | lo
	cols := m.Cols
	for base := 0; base < m.Rows; base++ {
		if base&mask != 0 {
			continue
		}
		r0 := m.Data[base*cols : base*cols+cols]
		r1 := m.Data[(base|lo)*cols : (base|lo)*cols+cols]
		r2 := m.Data[(base|hi)*cols : (base|hi)*cols+cols]
		r3 := m.Data[(base|mask)*cols : (base|mask)*cols+cols]
		for j, v0 := range r0 {
			v1, v2, v3 := r1[j], r2[j], r3[j]
			r0[j] = g[0]*v0 + g[1]*v1 + g[2]*v2 + g[3]*v3
			r1[j] = g[4]*v0 + g[5]*v1 + g[6]*v2 + g[7]*v3
			r2[j] = g[8]*v0 + g[9]*v1 + g[10]*v2 + g[11]*v3
			r3[j] = g[12]*v0 + g[13]*v1 + g[14]*v2 + g[15]*v3
		}
	}
}

// ApplyLeftTab is the generic k-qubit form of ApplyLeft1/ApplyLeft2:
// m <- G_full*m for a Dim x Dim gate g (row-major, len Dim*Dim).
func ApplyLeftTab(m *Matrix, g []complex128, t *ScatterTab) {
	t.acquire()
	defer t.release()
	dim := t.Dim
	for base := 0; base < m.Rows; base++ {
		if base&t.Mask != 0 {
			continue
		}
		for l := 0; l < dim; l++ {
			t.idx[l] = base | t.Offs[l]
		}
		for col := 0; col < m.Cols; col++ {
			for l := 0; l < dim; l++ {
				t.in[l] = m.Data[t.idx[l]*m.Cols+col]
			}
			for r := 0; r < dim; r++ {
				grow := g[r*dim : (r+1)*dim]
				var s complex128
				for l, v := range t.in {
					if grow[l] != 0 {
						s += grow[l] * v
					}
				}
				m.Data[t.idx[r]*m.Cols+col] = s
			}
		}
	}
}

// ApplyRight1 computes m <- m*G_full in place for a 2x2 gate g on qubit q.
func ApplyRight1(m *Matrix, g *[4]complex128, q int) {
	bit := 1 << q
	a, b, c, d := g[0], g[1], g[2], g[3]
	cols := m.Cols
	for base := 0; base < cols; base++ {
		if base&bit != 0 {
			continue
		}
		c0, c1 := base, base|bit
		for off := 0; off < len(m.Data); off += cols {
			v0, v1 := m.Data[off+c0], m.Data[off+c1]
			m.Data[off+c0] = v0*a + v1*c
			m.Data[off+c1] = v0*b + v1*d
		}
	}
}

// ApplyRight2 computes m <- m*G_full in place for a 4x4 gate g on qubits
// (qHi, qLo).
func ApplyRight2(m *Matrix, g *[16]complex128, qHi, qLo int) {
	hi, lo := 1<<qHi, 1<<qLo
	mask := hi | lo
	cols := m.Cols
	for base := 0; base < cols; base++ {
		if base&mask != 0 {
			continue
		}
		c0, c1, c2, c3 := base, base|lo, base|hi, base|mask
		for off := 0; off < len(m.Data); off += cols {
			v0, v1 := m.Data[off+c0], m.Data[off+c1]
			v2, v3 := m.Data[off+c2], m.Data[off+c3]
			m.Data[off+c0] = v0*g[0] + v1*g[4] + v2*g[8] + v3*g[12]
			m.Data[off+c1] = v0*g[1] + v1*g[5] + v2*g[9] + v3*g[13]
			m.Data[off+c2] = v0*g[2] + v1*g[6] + v2*g[10] + v3*g[14]
			m.Data[off+c3] = v0*g[3] + v1*g[7] + v2*g[11] + v3*g[15]
		}
	}
}

// ApplyRightTab is the generic k-qubit form of ApplyRight1/ApplyRight2.
func ApplyRightTab(m *Matrix, g []complex128, t *ScatterTab) {
	t.acquire()
	defer t.release()
	dim := t.Dim
	for base := 0; base < m.Cols; base++ {
		if base&t.Mask != 0 {
			continue
		}
		for l := 0; l < dim; l++ {
			t.idx[l] = base | t.Offs[l]
		}
		for row := 0; row < m.Rows; row++ {
			off := row * m.Cols
			for l := 0; l < dim; l++ {
				t.in[l] = m.Data[off+t.idx[l]]
			}
			// (m*G)[row][idx[lj]] = sum_lm in[lm]*g[lm][lj].
			for lj := 0; lj < dim; lj++ {
				var s complex128
				for lm := 0; lm < dim; lm++ {
					gv := g[lm*dim+lj]
					if gv != 0 {
						s += t.in[lm] * gv
					}
				}
				m.Data[off+t.idx[lj]] = s
			}
		}
	}
}

// GatherProdBlocks1 computes, for each index group {r0, r0|1<<q} of the
// product P = a*b, the 2x2 block [P[r0][r0], P[r0][r1], P[r1][r0],
// P[r1][r1]] and appends the blocks to dst in base order. dst must have
// length 2*Rows (Rows/2 groups x 4 entries). This is the gradient
// bottleneck of synthesis: Tr(P*dG_full) for a 1-qubit dG reads only
// these entries of P, so gathering them costs O(dim^2) instead of the
// O(dim^3) full product, and one gather serves every parameter of the
// same gate (see TraceBlocks1).
func GatherProdBlocks1(dst []complex128, a, b *Matrix, q int) {
	bit := 1 << q
	cols := a.Cols
	gi := 0
	for base := 0; base < a.Rows; base++ {
		if base&bit != 0 {
			continue
		}
		r0, r1 := base, base|bit
		a0 := a.Data[r0*cols : r0*cols+cols]
		a1 := a.Data[r1*cols : r1*cols+cols]
		var p00, p01, p10, p11 complex128
		for m, av0 := range a0 {
			b0, b1 := b.Data[m*cols+r0], b.Data[m*cols+r1]
			av1 := a1[m]
			p00 += av0 * b0
			p01 += av0 * b1
			p10 += av1 * b0
			p11 += av1 * b1
		}
		dst[gi] = p00
		dst[gi+1] = p01
		dst[gi+2] = p10
		dst[gi+3] = p11
		gi += 4
	}
}

// TraceBlocks1 returns Tr(P*G_full) from blocks gathered by
// GatherProdBlocks1: Tr(P*G) = sum over groups of P[i][j]*G[j][i].
func TraceBlocks1(blocks []complex128, g *[4]complex128) complex128 {
	var t complex128
	for i := 0; i < len(blocks); i += 4 {
		t += blocks[i]*g[0] + blocks[i+1]*g[2] + blocks[i+2]*g[1] + blocks[i+3]*g[3]
	}
	return t
}

// ApplyVec1 applies a 2x2 gate g to qubit q of a statevector in place.
func ApplyVec1(state []complex128, g *[4]complex128, q int) {
	bit := 1 << q
	a, b, c, d := g[0], g[1], g[2], g[3]
	for i := 0; i < len(state); i++ {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		v0, v1 := state[i], state[j]
		state[i] = a*v0 + b*v1
		state[j] = c*v0 + d*v1
	}
}

// ApplyVec2 applies a 4x4 gate g to qubits (qHi, qLo) of a statevector in
// place.
func ApplyVec2(state []complex128, g *[16]complex128, qHi, qLo int) {
	hi, lo := 1<<qHi, 1<<qLo
	mask := hi | lo
	for i := 0; i < len(state); i++ {
		if i&mask != 0 {
			continue
		}
		i1, i2, i3 := i|lo, i|hi, i|mask
		v0, v1, v2, v3 := state[i], state[i1], state[i2], state[i3]
		state[i] = g[0]*v0 + g[1]*v1 + g[2]*v2 + g[3]*v3
		state[i1] = g[4]*v0 + g[5]*v1 + g[6]*v2 + g[7]*v3
		state[i2] = g[8]*v0 + g[9]*v1 + g[10]*v2 + g[11]*v3
		state[i3] = g[12]*v0 + g[13]*v1 + g[14]*v2 + g[15]*v3
	}
}

// ApplyVecTab is the generic k-qubit form of ApplyVec1/ApplyVec2.
func ApplyVecTab(state []complex128, g []complex128, t *ScatterTab) {
	t.acquire()
	defer t.release()
	dim := t.Dim
	for base := 0; base < len(state); base++ {
		if base&t.Mask != 0 {
			continue
		}
		for l := 0; l < dim; l++ {
			gi := base | t.Offs[l]
			t.idx[l] = gi
			t.in[l] = state[gi]
		}
		for r := 0; r < dim; r++ {
			grow := g[r*dim : (r+1)*dim]
			var s complex128
			for l, v := range t.in {
				if grow[l] != 0 {
					s += grow[l] * v
				}
			}
			state[t.idx[r]] = s
		}
	}
}
