package synth

import (
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

// The gate-application kernels live in internal/linalg (shared with the
// simulator). Ansatz ops act on one or two qubits, so the objective only
// calls the unrolled k=1 and k=2 kernels (applyOpLeft/applyOpRight and the
// fused-layer passes below).

// segment is one fused evaluation unit of the objective. The ansatz emits
// each LEAP layer as five ops — CX(c,t) then RY,RZ on c then RY,RZ on t —
// and evaluating them separately costs five full-matrix passes forward and
// backward plus four 1-qubit gradient gathers. Since the four rotations
// act on the CX's own qubits, the whole layer collapses into a single 4x4
// gate L = (RZ_c·RY_c ⊗ RZ_t·RY_t)·CX, and right-multiplying by CX is a
// free column swap. A layer segment therefore costs one 4x4 pass in each
// direction and ONE 2-qubit gradient gather shared by all four parameters
// (GatherProdBlocks2/TraceBlocks2). Ops that don't form a full layer (the
// seed U3s, or hand-built templates) map 1:1 onto op segments and take the
// original per-op path.
type segment struct {
	layer bool
	op    aop // valid when !layer
	c, t  int // layer CX control/target (control = most significant bit)
	pidx  int // first of the layer's 4 params: θ_c, φ_c, θ_t, φ_t
}

// isLayer reports whether ops[0:5] is exactly one withLayer expansion with
// contiguous parameter indices (required so the fused gradient can write
// grad[pidx..pidx+3]).
func isLayer(ops []aop) bool {
	cx := ops[0]
	if cx.kind != opCX {
		return false
	}
	c, t := cx.q1, cx.q2
	p := ops[1].pidx
	want := [4]struct {
		kind opKind
		q    int
	}{{opRY, c}, {opRZ, c}, {opRY, t}, {opRZ, t}}
	for i, w := range want {
		o := ops[1+i]
		if o.kind != w.kind || o.q1 != w.q || o.pidx != p+i {
			return false
		}
	}
	return true
}

// compileSegments fuses LEAP layers and appends the segments to buf.
func compileSegments(ops []aop, buf []segment) []segment {
	for k := 0; k < len(ops); {
		if k+4 < len(ops) && isLayer(ops[k:k+5]) {
			buf = append(buf, segment{
				layer: true,
				c:     ops[k].q1,
				t:     ops[k].q2,
				pidx:  ops[k+1].pidx,
			})
			k += 5
			continue
		}
		buf = append(buf, segment{op: ops[k]})
		k++
	}
	return buf
}

// segTrig caches, per segment and per evaluation, the trig shared by the
// segment matrix and its derivatives: one Sincos per rotation (e^{iφ/2}
// is the conjugate of e^{-iφ/2}, which is exact in IEEE arithmetic), where
// the unfused path recomputed it for every matrixInto/derivInto call.
type segTrig struct {
	// Layer segments: control (C) and target (T) rotation trig.
	cC, sC   float64    // cos/sin of θ_c/2
	emC, epC complex128 // e^{∓iφ_c/2}
	cT, sT   float64
	emT, epT complex128
	rC, rT   [4]complex128 // RZ·RY per qubit, reused by the derivatives
	// U3 segments: cC/sC hold cos/sin of θ/2, and
	el, eph, ephl complex128 // e^{iλ}, e^{iφ}, e^{i(φ+λ)}
}

// rotInto writes RZ(φ)·RY(θ) = [[e^{-iφ/2}c, -e^{-iφ/2}s], [e^{iφ/2}s,
// e^{iφ/2}c]] from cached trig.
func rotInto(dst *[4]complex128, c, s float64, em, ep complex128) {
	dst[0] = em * complex(c, 0)
	dst[1] = em * complex(-s, 0)
	dst[2] = ep * complex(s, 0)
	dst[3] = ep * complex(c, 0)
}

// dRotRYInto writes ∂(RZ·RY)/∂θ = RZ·(-i/2)Y·RY.
func dRotRYInto(dst *[4]complex128, c, s float64, em, ep complex128) {
	dst[0] = em * complex(-s/2, 0)
	dst[1] = em * complex(-c/2, 0)
	dst[2] = ep * complex(c/2, 0)
	dst[3] = ep * complex(-s/2, 0)
}

// dRotRZInto writes ∂(RZ·RY)/∂φ = (-i/2)Z·RZ·RY.
func dRotRZInto(dst *[4]complex128, c, s float64, em, ep complex128) {
	mi, pi := complex(0, -0.5), complex(0, 0.5)
	dst[0] = mi * em * complex(c, 0)
	dst[1] = mi * em * complex(-s, 0)
	dst[2] = pi * ep * complex(s, 0)
	dst[3] = pi * ep * complex(c, 0)
}

// kron2Into writes the Kronecker product a ⊗ b (a on the most significant
// local bit) into dst.
func kron2Into(dst *[16]complex128, a, b *[4]complex128) {
	for ic := 0; ic < 2; ic++ {
		for it := 0; it < 2; it++ {
			r := (ic*2 + it) * 4
			for jc := 0; jc < 2; jc++ {
				av := a[ic*2+jc]
				dst[r+jc*2] = av * b[it*2]
				dst[r+jc*2+1] = av * b[it*2+1]
			}
		}
	}
}

// swapCols23 right-multiplies a 4x4 matrix by CX (control = MSB) in place:
// CX permutes basis states 2 and 3, so M·CX just swaps columns 2 and 3.
func swapCols23(dst *[16]complex128) {
	for r := 0; r < 16; r += 4 {
		dst[r+2], dst[r+3] = dst[r+3], dst[r+2]
	}
}

// objPool amortizes objective scratch across the runs of one synthesis
// search. Every run shares the same target, so the U† copy and the
// dim×dim matrix chain are built once per worker instead of once per
// node. A pool (and the objective it lends) is owned by one goroutine at
// a time; helpers that run a depth's optimizations in parallel each get
// their own sibling pool.
type objPool struct {
	target *linalg.Matrix
	mdag   *linalg.Matrix
	dim    int
	ident  *linalg.Matrix   // constant identity: fwd[0] of every objective
	mats   []*linalg.Matrix // reusable fwd[1..] chain, grown on demand
	bwd    *linalg.Matrix
	vbuf   *linalg.Matrix
	tbuf   []complex128
	segs   []segment
	trig   []segTrig
	gmats  [][16]complex128
	fwd    []*linalg.Matrix
	obj    objective // the objective newObjectiveFrom lends
}

func newObjPool(target *linalg.Matrix) *objPool {
	p := &objPool{target: target, mdag: target.Dagger(), dim: target.Rows}
	p.ident = linalg.New(p.dim, p.dim)
	setIdentity(p.ident)
	return p.sibling()
}

// sibling returns a pool for another goroutine: it shares p's read-only
// target, U† and identity and owns fresh mutable scratch.
func (p *objPool) sibling() *objPool {
	return &objPool{
		target: p.target,
		mdag:   p.mdag,
		dim:    p.dim,
		ident:  p.ident,
		bwd:    linalg.New(p.dim, p.dim),
		vbuf:   linalg.New(p.dim, p.dim),
		tbuf:   make([]complex128, 4*p.dim),
	}
}

// objective evaluates f(θ) = 1 - |Tr(U†V(θ))|²/N² and its gradient for an
// ansatz against a target unitary. It borrows scratch from an objPool, so
// one objective instance must not be shared across goroutines and becomes
// invalid once the next objective is built from the same pool. The
// evaluation loop is allocation-free: segment matrices are written into
// pool-owned buffers, computed once per evaluation in the forward pass and
// reused by the backward pass, and every index table is unrolled into the
// k=1/k=2 kernels.
type objective struct {
	a      *ansatz
	target *linalg.Matrix // U
	mdag   *linalg.Matrix // U†
	dim    int
	segs   []segment
	trig   []segTrig        // per-segment trig cache (layer segments only)
	gmats  [][16]complex128 // per-segment gate matrix, fwd → bwd reuse
	fwd    []*linalg.Matrix // fwd[k] = S_k···S_1, fwd[0] = I (pool constant)
	bwd    *linalg.Matrix   // scratch: R = U†·S_K···S_{k+1}
	vbuf   *linalg.Matrix   // scratch product for value()
	tbuf   []complex128     // gathered product blocks (up to 4*dim)
	dbuf   [16]complex128   // current segment's derivative matrix
	rbuf   [4]complex128    // 2x2 derivative factor scratch
}

func newObjective(a *ansatz, target *linalg.Matrix) *objective {
	return newObjectiveFrom(newObjPool(target), a)
}

func newObjectiveFrom(p *objPool, a *ansatz) *objective {
	p.segs = compileSegments(a.ops, p.segs[:0])
	ns := len(p.segs)
	for len(p.trig) < ns {
		p.trig = append(p.trig, segTrig{})
	}
	for len(p.gmats) < ns {
		p.gmats = append(p.gmats, [16]complex128{})
	}
	for len(p.mats) < ns {
		p.mats = append(p.mats, linalg.New(p.dim, p.dim))
	}
	p.fwd = append(p.fwd[:0], p.ident)
	p.fwd = append(p.fwd, p.mats[:ns]...)
	p.obj = objective{
		a:      a,
		target: p.target,
		mdag:   p.mdag,
		dim:    p.dim,
		segs:   p.segs,
		trig:   p.trig[:ns],
		gmats:  p.gmats[:ns],
		fwd:    p.fwd,
		bwd:    p.bwd,
		vbuf:   p.vbuf,
		tbuf:   p.tbuf,
	}
	return &p.obj
}

// setIdentity resets m to the identity without allocating.
func setIdentity(m *linalg.Matrix) {
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] = 1
	}
}

// applyOpLeft computes m ← G_full·m for an ansatz op whose small matrix is
// in g, dispatching to the unrolled kernel for the op's arity.
func applyOpLeft(m *linalg.Matrix, op aop, g *[16]complex128) {
	if op.kind == opCX {
		linalg.ApplyLeft2(m, g, op.q1, op.q2)
	} else {
		linalg.ApplyLeft1(m, (*[4]complex128)(g[:4]), op.q1)
	}
}

// applyOpRight computes m ← m·G_full for an ansatz op.
func applyOpRight(m *linalg.Matrix, op aop, g *[16]complex128) {
	if op.kind == opCX {
		linalg.ApplyRight2(m, g, op.q1, op.q2)
	} else {
		linalg.ApplyRight1(m, (*[4]complex128)(g[:4]), op.q1)
	}
}

// segMatrix computes segment k's gate matrix into gmats[k] (and, for
// layer/U3 segments, fills the trig cache reused by the backward pass).
func (o *objective) segMatrix(k int, params []float64) {
	sg := &o.segs[k]
	if !sg.layer {
		if sg.op.kind == opU3 {
			o.u3Matrix(k, params)
		} else {
			sg.op.matrixInto(params, o.gmats[k][:])
		}
		return
	}
	tr := &o.trig[k]
	tr.sC, tr.cC = math.Sincos(params[sg.pidx] / 2)
	tr.emC = expi(-params[sg.pidx+1] / 2)
	tr.epC = complex(real(tr.emC), -imag(tr.emC))
	tr.sT, tr.cT = math.Sincos(params[sg.pidx+2] / 2)
	tr.emT = expi(-params[sg.pidx+3] / 2)
	tr.epT = complex(real(tr.emT), -imag(tr.emT))
	rotInto(&tr.rC, tr.cC, tr.sC, tr.emC, tr.epC)
	rotInto(&tr.rT, tr.cT, tr.sT, tr.emT, tr.epT)
	kron2Into(&o.gmats[k], &tr.rC, &tr.rT)
	swapCols23(&o.gmats[k])
}

// u3Matrix computes a U3 segment's 2x2 matrix with one Sincos per angle
// (e^{i(φ+λ)} = e^{iφ}·e^{iλ}), caching the trig so the backward pass
// derives all three parameter derivatives without recomputing it.
func (o *objective) u3Matrix(k int, params []float64) {
	sg := &o.segs[k]
	tr := &o.trig[k]
	p := sg.op.pidx
	tr.sC, tr.cC = math.Sincos(params[p] / 2)
	tr.el = expi(params[p+2])
	tr.eph = expi(params[p+1])
	tr.ephl = tr.eph * tr.el
	g := &o.gmats[k]
	g[0] = complex(tr.cC, 0)
	g[1] = -tr.el * complex(tr.sC, 0)
	g[2] = tr.eph * complex(tr.sC, 0)
	g[3] = tr.ephl * complex(tr.cC, 0)
}

// u3Deriv writes ∂U3/∂θ_j into dst from the cached trig (same formulas as
// aop.derivInto, with the exponentials reused).
func (o *objective) u3Deriv(k, j int, dst *[4]complex128) {
	tr := &o.trig[k]
	c, s := tr.cC, tr.sC
	switch j {
	case 0: // d/dθ
		dst[0] = complex(-s/2, 0)
		dst[1] = -tr.el * complex(c/2, 0)
		dst[2] = tr.eph * complex(c/2, 0)
		dst[3] = tr.ephl * complex(-s/2, 0)
	case 1: // d/dφ
		dst[0] = 0
		dst[1] = 0
		dst[2] = 1i * tr.eph * complex(s, 0)
		dst[3] = 1i * tr.ephl * complex(c, 0)
	case 2: // d/dλ
		dst[0] = 0
		dst[1] = -1i * tr.el * complex(s, 0)
		dst[2] = 0
		dst[3] = 1i * tr.ephl * complex(c, 0)
	default:
		panic("synth: u3 derivative index out of range")
	}
}

// trace2 contracts a 2x2 partial trace (from LayerGradContract) against a
// 2x2 derivative factor: Σ w[i][j]·x[j][i].
func trace2(w, x *[4]complex128) complex128 {
	return w[0]*x[0] + w[1]*x[2] + w[2]*x[1] + w[3]*x[3]
}

// applySegLeft computes m ← S_full·m in place for segment k.
func (o *objective) applySegLeft(m *linalg.Matrix, k int) {
	sg := &o.segs[k]
	if sg.layer {
		linalg.ApplyLeft2(m, &o.gmats[k], sg.c, sg.t)
	} else {
		applyOpLeft(m, sg.op, &o.gmats[k])
	}
}

// applySegLeftInto computes dst ← S_full·src for segment k, fusing the
// copy and the apply of the forward pass.
func (o *objective) applySegLeftInto(dst, src *linalg.Matrix, k int) {
	sg := &o.segs[k]
	switch {
	case sg.layer:
		linalg.ApplyLeft2Into(dst, src, &o.gmats[k], sg.c, sg.t)
	case sg.op.kind == opCX:
		linalg.ApplyLeft2Into(dst, src, &o.gmats[k], sg.op.q1, sg.op.q2)
	default:
		if src == o.fwd[0] {
			// fwd[0] is the pool's constant identity, so S·I is just the
			// embedding of the gate — no dense multiply needed.
			linalg.EmbedGate1(dst, (*[4]complex128)(o.gmats[k][:4]), sg.op.q1)
		} else {
			linalg.ApplyLeft1Into(dst, src, (*[4]complex128)(o.gmats[k][:4]), sg.op.q1)
		}
	}
}

// applySegRight computes m ← m·S_full in place for segment k, reusing the
// gate matrix computed by the forward pass.
func (o *objective) applySegRight(m *linalg.Matrix, k int) {
	sg := &o.segs[k]
	if sg.layer {
		linalg.ApplyRight2(m, &o.gmats[k], sg.c, sg.t)
	} else {
		applyOpRight(m, sg.op, &o.gmats[k])
	}
}

// value returns f(θ) without gradient work.
func (o *objective) value(params []float64) float64 {
	v := o.vbuf
	setIdentity(v)
	for k := range o.segs {
		o.segMatrix(k, params)
		o.applySegLeft(v, k)
	}
	t := linalg.HSInner(o.target, v)
	return o.distanceSq(t)
}

func (o *objective) distanceSq(t complex128) float64 {
	n := float64(o.dim)
	f := 1 - (real(t)*real(t)+imag(t)*imag(t))/(n*n)
	if f < 0 {
		return 0
	}
	return f
}

// valueGrad evaluates f and writes ∂f/∂θ into grad.
func (o *objective) valueGrad(params, grad []float64) float64 {
	segs := o.segs
	// Forward pass: fwd[0] = I, fwd[k] = S_k···S_1. Segment matrices land
	// in gmats and are reused by the backward pass.
	for k := range segs {
		o.segMatrix(k, params)
		o.applySegLeftInto(o.fwd[k+1], o.fwd[k], k)
	}
	vFull := o.fwd[len(segs)]
	t := linalg.HSInner(o.target, vFull)
	f := o.distanceSq(t)

	// Backward pass: R starts at U† and absorbs segments from the end.
	o.mdag.CopyInto(o.bwd)
	n2 := float64(o.dim) * float64(o.dim)
	tconj := cmplx.Conj(t)
	for k := len(segs) - 1; k >= 0; k-- {
		sg := &segs[k]
		if sg.layer {
			// ∂T/∂θ_j = Tr(F_{k-1}·R_k·dL) (cyclic rearrangement of
			// Tr(R dL F)). Every dL factors as (dA⊗B)·CX or (A⊗dB)·CX, so
			// one fused gather+contract serves all four layer parameters
			// and each derivative reduces to a 2x2 trace.
			tr := &o.trig[k]
			var w, v [4]complex128
			linalg.LayerGradContract(o.fwd[k], o.bwd, sg.c, sg.t, &tr.rC, &tr.rT, &w, &v)
			// f = 1 - T T̄ / N² ⇒ ∂f = -2 Re(T̄ ∂T)/N².
			dRotRYInto(&o.rbuf, tr.cC, tr.sC, tr.emC, tr.epC)
			grad[sg.pidx] = -2 * real(tconj*trace2(&w, &o.rbuf)) / n2
			dRotRZInto(&o.rbuf, tr.cC, tr.sC, tr.emC, tr.epC)
			grad[sg.pidx+1] = -2 * real(tconj*trace2(&w, &o.rbuf)) / n2
			dRotRYInto(&o.rbuf, tr.cT, tr.sT, tr.emT, tr.epT)
			grad[sg.pidx+2] = -2 * real(tconj*trace2(&v, &o.rbuf)) / n2
			dRotRZInto(&o.rbuf, tr.cT, tr.sT, tr.emT, tr.epT)
			grad[sg.pidx+3] = -2 * real(tconj*trace2(&v, &o.rbuf)) / n2
		} else if np := sg.op.nparams(); np > 0 {
			// Non-layer parameterized ops are 1-qubit (seed U3s): gather
			// the 2x2 blocks once and reuse for every parameter. For the
			// first segment fwd[0] = I, so the gather is a plain copy.
			if k == 0 {
				linalg.GatherIdentityBlocks1(o.tbuf[:2*o.dim], o.bwd, sg.op.q1)
			} else {
				linalg.GatherProdBlocks1(o.tbuf[:2*o.dim], o.fwd[k], o.bwd, sg.op.q1)
			}
			for j := 0; j < np; j++ {
				if sg.op.kind == opU3 {
					o.u3Deriv(k, j, &o.rbuf)
				} else {
					sg.op.derivInto(params, j, o.dbuf[:])
					o.rbuf = *(*[4]complex128)(o.dbuf[:4])
				}
				dT := linalg.TraceBlocks1(o.tbuf[:2*o.dim], &o.rbuf)
				grad[sg.op.pidx+j] = -2 * real(tconj*dT) / n2
			}
		}
		if k > 0 {
			// After the first segment's gradient the accumulator is dead;
			// skip the final absorb.
			o.applySegRight(o.bwd, k)
		}
	}
	return f
}
