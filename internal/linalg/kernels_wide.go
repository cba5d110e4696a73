// Wide-block kernels: k=3 (8x8) and k=4 (16x16) unrolled statevector
// kernels (internal/sim's ApplyMatrixOp), out-of-place Into forms of the
// k=1/k=2 left-application kernels, and the 2-qubit gradient gather used
// by the fused-layer synthesis objective. Same contract as kernels.go:
// caller-owned scratch, zero heap allocations, and bit-for-bit agreement
// with the generic ScatterTab path (the `gv != 0` zero-skip is kept so the
// accumulation order and the skipped terms match the oracle exactly).
package linalg

// offs8 expands the three gate-qubit bit positions (qA = most significant
// local bit) into the eight global offset patterns of a group.
func offs8(qA, qB, qC int) (offs [8]int, mask int) {
	a, b, c := 1<<qA, 1<<qB, 1<<qC
	mask = a | b | c
	for l := 0; l < 8; l++ {
		o := 0
		if l&4 != 0 {
			o |= a
		}
		if l&2 != 0 {
			o |= b
		}
		if l&1 != 0 {
			o |= c
		}
		offs[l] = o
	}
	return offs, mask
}

// offs16 expands four gate-qubit bit positions (qA = most significant
// local bit) into the sixteen global offset patterns of a group.
func offs16(qA, qB, qC, qD int) (offs [16]int, mask int) {
	a, b, c, d := 1<<qA, 1<<qB, 1<<qC, 1<<qD
	mask = a | b | c | d
	for l := 0; l < 16; l++ {
		o := 0
		if l&8 != 0 {
			o |= a
		}
		if l&4 != 0 {
			o |= b
		}
		if l&2 != 0 {
			o |= c
		}
		if l&1 != 0 {
			o |= d
		}
		offs[l] = o
	}
	return offs, mask
}

// ApplyVec3 applies an 8x8 gate g to qubits (qA, qB, qC) of a statevector
// in place.
func ApplyVec3(state []complex128, g *[64]complex128, qA, qB, qC int) {
	offs, mask := offs8(qA, qB, qC)
	var idx [8]int
	var in [8]complex128
	for base := 0; base < len(state); base++ {
		if base&mask != 0 {
			continue
		}
		for l := 0; l < 8; l++ {
			gi := base | offs[l]
			idx[l] = gi
			in[l] = state[gi]
		}
		for r := 0; r < 8; r++ {
			grow := g[r*8 : r*8+8]
			var s complex128
			for l, v := range in {
				if grow[l] != 0 {
					s += grow[l] * v
				}
			}
			state[idx[r]] = s
		}
	}
}

// ApplyVec4 applies a 16x16 gate g to qubits (qA, qB, qC, qD) of a
// statevector in place.
func ApplyVec4(state []complex128, g *[256]complex128, qA, qB, qC, qD int) {
	offs, mask := offs16(qA, qB, qC, qD)
	var idx [16]int
	var in [16]complex128
	for base := 0; base < len(state); base++ {
		if base&mask != 0 {
			continue
		}
		for l := 0; l < 16; l++ {
			gi := base | offs[l]
			idx[l] = gi
			in[l] = state[gi]
		}
		for r := 0; r < 16; r++ {
			grow := g[r*16 : r*16+16]
			var s complex128
			for l, v := range in {
				if grow[l] != 0 {
					s += grow[l] * v
				}
			}
			state[idx[r]] = s
		}
	}
}

// ApplyLeft1Into computes dst <- G_full*src for a 2x2 gate g on qubit q.
// dst and src must be distinct, same-shape matrices; every entry of dst is
// written. The out-of-place form replaces the CopyInto+ApplyLeft1 pair in
// the synthesis forward pass, halving its memory traffic.
func ApplyLeft1Into(dst, src *Matrix, g *[4]complex128, q int) {
	bit := 1 << q
	a, b, c, d := g[0], g[1], g[2], g[3]
	cols := src.Cols
	for base := 0; base < src.Rows; base++ {
		if base&bit != 0 {
			continue
		}
		s0 := src.Data[base*cols : base*cols+cols]
		s1 := src.Data[(base|bit)*cols : (base|bit)*cols+cols]
		d0 := dst.Data[base*cols : base*cols+cols]
		d1 := dst.Data[(base|bit)*cols : (base|bit)*cols+cols]
		for j, v0 := range s0 {
			v1 := s1[j]
			d0[j] = a*v0 + b*v1
			d1[j] = c*v0 + d*v1
		}
	}
}

// ApplyLeft2Into computes dst <- G_full*src for a 4x4 gate g on qubits
// (qHi, qLo). dst and src must be distinct, same-shape matrices; every
// entry of dst is written.
func ApplyLeft2Into(dst, src *Matrix, g *[16]complex128, qHi, qLo int) {
	hi, lo := 1<<qHi, 1<<qLo
	mask := hi | lo
	cols := src.Cols
	// Hoist the gate entries: the compiler cannot prove g does not alias
	// dst.Data, so indexing g inside the loop reloads all 16 entries after
	// every store.
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	g4, g5, g6, g7 := g[4], g[5], g[6], g[7]
	g8, g9, g10, g11 := g[8], g[9], g[10], g[11]
	g12, g13, g14, g15 := g[12], g[13], g[14], g[15]
	for base := 0; base < src.Rows; base++ {
		if base&mask != 0 {
			continue
		}
		s0 := src.Data[base*cols : base*cols+cols]
		s1 := src.Data[(base|lo)*cols : (base|lo)*cols+cols]
		s2 := src.Data[(base|hi)*cols : (base|hi)*cols+cols]
		s3 := src.Data[(base|mask)*cols : (base|mask)*cols+cols]
		d0 := dst.Data[base*cols : base*cols+cols]
		d1 := dst.Data[(base|lo)*cols : (base|lo)*cols+cols]
		d2 := dst.Data[(base|hi)*cols : (base|hi)*cols+cols]
		d3 := dst.Data[(base|mask)*cols : (base|mask)*cols+cols]
		for j, v0 := range s0 {
			v1, v2, v3 := s1[j], s2[j], s3[j]
			d0[j] = g0*v0 + g1*v1 + g2*v2 + g3*v3
			d1[j] = g4*v0 + g5*v1 + g6*v2 + g7*v3
			d2[j] = g8*v0 + g9*v1 + g10*v2 + g11*v3
			d3[j] = g12*v0 + g13*v1 + g14*v2 + g15*v3
		}
	}
}

// GatherProdBlocks2 is the 2-qubit analogue of GatherProdBlocks1: for each
// index group {base, base|lo, base|hi, base|hi|lo} of the product P = a*b
// it stores the 4x4 block P[i_li][i_lj] (row-major in (li, lj)) into dst in
// base order. dst must have length 4*Rows (Rows/4 groups x 16 entries).
// One gather serves every parameter of a fused 4x4 layer segment (see
// TraceBlocks2), which is what makes the layer-fused gradient cheaper than
// four 1-qubit gathers.
func GatherProdBlocks2(dst []complex128, a, b *Matrix, qHi, qLo int) {
	hi, lo := 1<<qHi, 1<<qLo
	mask := hi | lo
	cols := a.Cols
	bd := b.Data
	gi := 0
	for base := 0; base < a.Rows; base++ {
		if base&mask != 0 {
			continue
		}
		i0, i1, i2, i3 := base, base|lo, base|hi, base|mask
		idx := [4]int{i0, i1, i2, i3}
		for li := 0; li < 4; li++ {
			arow := a.Data[idx[li]*cols : idx[li]*cols+cols]
			var p0, p1, p2, p3 complex128
			for m, av := range arow {
				off := m * cols
				p0 += av * bd[off+i0]
				p1 += av * bd[off+i1]
				p2 += av * bd[off+i2]
				p3 += av * bd[off+i3]
			}
			dst[gi] = p0
			dst[gi+1] = p1
			dst[gi+2] = p2
			dst[gi+3] = p3
			gi += 4
		}
	}
}

// TraceBlocks2 returns Tr(P*G_full) from blocks gathered by
// GatherProdBlocks2: Tr(P*G) = sum over groups of P[i][j]*G[j][i].
func TraceBlocks2(blocks []complex128, g *[16]complex128) complex128 {
	var t complex128
	for i := 0; i < len(blocks); i += 16 {
		blk := blocks[i : i+16]
		for li := 0; li < 4; li++ {
			t += blk[li*4]*g[li] + blk[li*4+1]*g[4+li] +
				blk[li*4+2]*g[8+li] + blk[li*4+3]*g[12+li]
		}
	}
	return t
}

// LayerGradContract fuses the gradient gather of a fused LEAP layer with
// the two partial contractions its four parameter derivatives share. The
// layer gate is L = (A ⊗ B)·CX with A = RZ·RY on the control (local MSB)
// and B = RZ·RY on the target, so every derivative has the form
// (dA ⊗ B)·CX or (A ⊗ dB)·CX. With P = a·b restricted to the (qHi, qLo)
// index groups and Tr(P·G·CX) = Tr(CX·P·G) — CX on the left is a free row
// swap of the block — the trace against any (X ⊗ Y)-shaped G factors
// through one of two 2x2 partial contractions:
//
//	w[ic][jc] = Σ_groups Σ_{it,jt} Pswap[(ic,it)][(jc,jt)] · rt[jt][it]
//	v[it][jt] = Σ_groups Σ_{ic,jc} Pswap[(ic,it)][(jc,jt)] · rc[jc][ic]
//
// so that Tr(P·(dA⊗B)·CX) = Σ dA[jc][ic]·w[ic][jc] and likewise for dB
// against v. One call serves all four layer parameters; the 4x4 blocks
// never touch memory (compare GatherProdBlocks2 + TraceBlocks2, which
// materialize them and re-walk them per parameter).
func LayerGradContract(a, b *Matrix, qHi, qLo int, rc, rt, w, v *[4]complex128) {
	hi, lo := 1<<qHi, 1<<qLo
	mask := hi | lo
	cols := a.Cols
	if cols > 16 {
		layerGradContractGeneric(a, b, hi, lo, mask, rc, rt, w, v)
		return
	}
	bd := b.Data
	rtv, rcv := *rt, *rc
	var wa, va [4]complex128
	// Stage b's four group columns once per index group: all four rows of
	// the 4x4 product block read the same 4*cols entries of b, so a single
	// gather into a stack buffer replaces four strided walks of b.Data and
	// their bounds checks. Synthesis blocks are at most 4 qubits, so the
	// hot path always has cols <= 16; anything larger takes the unstaged
	// generic loop above.
	var bc [16][4]complex128
	for base := 0; base < a.Rows; base++ {
		if base&mask != 0 {
			continue
		}
		i0, i1, i2, i3 := base, base|lo, base|hi, base|mask
		for m := 0; m < cols; m++ {
			off := m * cols
			bc[m][0] = bd[off+i0]
			bc[m][1] = bd[off+i1]
			bc[m][2] = bd[off+i2]
			bc[m][3] = bd[off+i3]
		}
		idx := [4]int{i0, i1, i2, i3}
		for li := 0; li < 4; li++ {
			arow := a.Data[idx[li]*cols : idx[li]*cols+cols]
			var p0, p1, p2, p3 complex128
			for m, av := range arow {
				p0 += av * bc[m][0]
				p1 += av * bc[m][1]
				p2 += av * bc[m][2]
				p3 += av * bc[m][3]
			}
			bi := li
			if li == 2 {
				bi = 3
			} else if li == 3 {
				bi = 2
			}
			ic, it := bi>>1, bi&1
			wa[ic*2] += p0*rtv[it] + p1*rtv[2+it]
			wa[ic*2+1] += p2*rtv[it] + p3*rtv[2+it]
			va[it*2] += p0*rcv[ic] + p2*rcv[2+ic]
			va[it*2+1] += p1*rcv[ic] + p3*rcv[2+ic]
		}
	}
	*w = wa
	*v = va
}

// layerGradContractGeneric is the unstaged fallback for matrices wider than
// the 4-qubit stack buffer in LayerGradContract; semantics are identical.
func layerGradContractGeneric(a, b *Matrix, hi, lo, mask int, rc, rt, w, v *[4]complex128) {
	cols := a.Cols
	bd := b.Data
	rtv, rcv := *rt, *rc
	var wa, va [4]complex128
	for base := 0; base < a.Rows; base++ {
		if base&mask != 0 {
			continue
		}
		i0, i1, i2, i3 := base, base|lo, base|hi, base|mask
		idx := [4]int{i0, i1, i2, i3}
		for li := 0; li < 4; li++ {
			arow := a.Data[idx[li]*cols : idx[li]*cols+cols]
			var p0, p1, p2, p3 complex128
			for m, av := range arow {
				off := m * cols
				p0 += av * bd[off+i0]
				p1 += av * bd[off+i1]
				p2 += av * bd[off+i2]
				p3 += av * bd[off+i3]
			}
			bi := li
			if li == 2 {
				bi = 3
			} else if li == 3 {
				bi = 2
			}
			ic, it := bi>>1, bi&1
			wa[ic*2] += p0*rtv[it] + p1*rtv[2+it]
			wa[ic*2+1] += p2*rtv[it] + p3*rtv[2+it]
			va[it*2] += p0*rcv[ic] + p2*rcv[2+ic]
			va[it*2+1] += p1*rcv[ic] + p3*rcv[2+ic]
		}
	}
	*w = wa
	*v = va
}

// GatherIdentityBlocks1 is GatherProdBlocks1 specialized to a = I: the
// product blocks are just b's entries at the group indices. The synthesis
// backward pass hits this for the first segment of every evaluation
// (fwd[0] is always the identity).
func GatherIdentityBlocks1(dst []complex128, b *Matrix, q int) {
	bit := 1 << q
	cols := b.Cols
	bd := b.Data
	gi := 0
	for base := 0; base < b.Rows; base++ {
		if base&bit != 0 {
			continue
		}
		r0, r1 := base, base|bit
		dst[gi] = bd[r0*cols+r0]
		dst[gi+1] = bd[r0*cols+r1]
		dst[gi+2] = bd[r1*cols+r0]
		dst[gi+3] = bd[r1*cols+r1]
		gi += 4
	}
}

// EmbedGate1 writes the full-space embedding of a 2x2 gate g on qubit q
// into dst (dst <- G_full). Replaces a dense ApplyLeft1Into when the
// source is known to be the identity: the result has just four gate
// entries per group, so embedding directly skips the dense multiply.
func EmbedGate1(dst *Matrix, g *[4]complex128, q int) {
	bit := 1 << q
	cols := dst.Cols
	d := dst.Data
	for i := range d {
		d[i] = 0
	}
	for base := 0; base < dst.Rows; base++ {
		if base&bit != 0 {
			continue
		}
		i0, i1 := base, base|bit
		d[i0*cols+i0] = g[0]
		d[i0*cols+i1] = g[1]
		d[i1*cols+i0] = g[2]
		d[i1*cols+i1] = g[3]
	}
}
