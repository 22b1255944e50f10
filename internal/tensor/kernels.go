package tensor

import (
	"encoding/binary"
	"math"
)

// Element-wise kernels. Every hot loop in the repository (the ring reduce,
// the accumulator's weighted mean, the SGD update, the models' backprop)
// bottoms out in one of these.
//
// Each vectorised kernel is a pair: the Go loop (`…Go`) is the
// specification, the fallback and the test oracle; the dispatcher of the
// same name without the suffix runs the AVX2 body of kernels_amd64.s when
// useAVX2 is set and the operand has at least vecMin elements. The two
// produce the same bits (DESIGN.md, "Vector kernels"): the assembly issues,
// per element, the operations of the Go expression in the Go expression's
// order, and no FMA. useAVX2 is a constant false off amd64, under
// `-tags purego` and, as a variable, under -race (assembly is invisible to
// the detector), so there the branch is dead or never taken.
//
// The Go loops are unrolled four ways with an explicit re-slice
// (`b = b[:len(a)]`) that removes the bounds checks from the body; the
// dispatchers re-slice too, which is the only length check the assembly
// gets. Operands must be the same slice or disjoint: a destination that
// overlaps a source at a shifted offset makes the Go loop a recurrence the
// four-wide body does not reproduce.

// vecMin is the shortest operand handed to the assembly. Measured: at 4–6
// elements the call and its VZEROUPPER are level with the Go loop's few
// iterations, from 8 the assembly is 1.3–2× faster.
const vecMin = 8

// addVec computes a[i] += b[i].
func addVec(a, b []float64) {
	b = b[:len(a)]
	if useAVX2 && len(a) >= vecMin {
		sumToAVX2(a, a, b) // a = a + b: the same operation per element
		return
	}
	addVecGo(a, b)
}

// addVecGo is the Go loop of addVec.
func addVecGo(a, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] += b[i]
		a[i+1] += b[i+1]
		a[i+2] += b[i+2]
		a[i+3] += b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] += b[i]
	}
}

// scaleVec computes a[i] *= c.
func scaleVec(a []float64, c float64) {
	if useAVX2 && len(a) >= vecMin {
		scaleVecAVX2(a, c)
		return
	}
	scaleVecGo(a, c)
}

// scaleVecGo is the Go loop of scaleVec.
func scaleVecGo(a []float64, c float64) {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] *= c
		a[i+1] *= c
		a[i+2] *= c
		a[i+3] *= c
	}
	for ; i < len(a); i++ {
		a[i] *= c
	}
}

// sumTo computes dst[i] = a[i] + b[i] in one pass — the out-of-place fused
// form of addVec, bit-identical to clone-then-add.
func sumTo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if useAVX2 && len(dst) >= vecMin {
		sumToAVX2(dst, a, b)
		return
	}
	sumToGo(dst, a, b)
}

// sumToGo is the Go loop of sumTo.
func sumToGo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = a[i] + b[i]
		dst[i+1] = a[i+1] + b[i+1]
		dst[i+2] = a[i+2] + b[i+2]
		dst[i+3] = a[i+3] + b[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// diffTo computes dst[i] = a[i] - b[i] in one pass, bit-identical to
// clone-then-subtract; dst may be a (Vector.Sub).
func diffTo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if useAVX2 && len(dst) >= vecMin {
		diffToAVX2(dst, a, b)
		return
	}
	diffToGo(dst, a, b)
}

// diffToGo is the Go loop of diffTo.
func diffToGo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = a[i] - b[i]
		dst[i+1] = a[i+1] - b[i+1]
		dst[i+2] = a[i+2] - b[i+2]
		dst[i+3] = a[i+3] - b[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] - b[i]
	}
}

// avgTo computes dst[i] = (a[i]+b[i])/2 in one pass — the parameter-server
// Average mode. The expression matches the scalar loop exactly (add, then
// halve), so results are bit-identical to it.
func avgTo(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i] = (a[i] + b[i]) / 2
		dst[i+1] = (a[i+1] + b[i+1]) / 2
		dst[i+2] = (a[i+2] + b[i+2]) / 2
		dst[i+3] = (a[i+3] + b[i+3]) / 2
	}
	for ; i < len(dst); i++ {
		dst[i] = (a[i] + b[i]) / 2
	}
}

// axpyVec computes a[i] += c*b[i], the fused multiply-add behind AddScaled.
func axpyVec(a []float64, c float64, b []float64) {
	b = b[:len(a)]
	if useAVX2 && len(a) >= vecMin {
		axpyVecAVX2(a, c, b)
		return
	}
	axpyVecGo(a, c, b)
}

// axpyVecGo is the Go loop of axpyVec.
func axpyVecGo(a []float64, c float64, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] += c * b[i]
		a[i+1] += c * b[i+1]
		a[i+2] += c * b[i+2]
		a[i+3] += c * b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] += c * b[i]
	}
}

// Axpy computes a[i] += c*b[i] over raw slices with no shape checking — the
// unchecked form of Vector.AddScaled for hot loops (model backprop) whose
// slice lengths are fixed by construction. b must be at least as long as a.
func Axpy(a []float64, c float64, b []float64) { axpyVec(a, c, b) }

// LinComb sets dst[i] = ((+0 + c[0]·xs[0][i]) + c[1]·xs[1][i]) + …, the
// sources in order: the bits of zeroing dst and then one Axpy(dst, c[j],
// xs[j]) per source, with dst written once per four sources instead of once
// per source and once more for the zeroing. c must hold len(xs) coefficients
// and every source at least len(dst) elements.
func LinComb(dst, c []float64, xs [][]float64) {
	c = c[:len(xs)]
	j := 0
	if useAVX2 && len(dst) >= vecMin {
		n := len(dst)
		for ; j+4 <= len(xs); j += 4 {
			linComb4AVX2(dst, c[j:j+4], xs[j][:n], xs[j+1][:n], xs[j+2][:n], xs[j+3][:n], j > 0)
		}
	}
	if j == 0 {
		clear(dst)
	}
	for ; j < len(xs); j++ {
		axpyVec(dst, c[j], xs[j])
	}
}

// linCombGo is the Go loop of LinComb.
func linCombGo(dst, c []float64, xs [][]float64) {
	clear(dst)
	for j, x := range xs {
		axpyVecGo(dst, c[j], x)
	}
}

// AddLE computes dst[i] += x_i, where x_i is the float64 whose little-endian
// bytes are src[8i:8i+8]: the fold of a received frame body straight out of
// the transport's read window. A body starts 36 bytes into its frame, so the
// window cannot be viewed as a []float64 (misaligned, and invalid under
// checkptr); the assembly loads it with VMOVUPD like any other operand.
// src must hold at least 8·len(dst) bytes.
func AddLE(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	if useAVX2 && len(dst) >= vecMin {
		sumToLEAVX2(dst, dst, src) // dst = dst + x: addVec's operation per element
		return
	}
	addLEGo(dst, src)
}

// addLEGo is the Go loop of AddLE.
func addLEGo(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Dot returns Σ a[i]*b[i] over raw slices with no shape checking — the
// unchecked form of Vector.Dot for hot loops. b must be at least as long
// as a.
func Dot(a, b []float64) float64 { return dotVec(a, b) }

// dotVec returns Σ a[i]*b[i] using four independent accumulators, breaking
// the serial-add dependency chain. The summation order differs from a naive
// left-to-right fold by at most the usual FP reassociation error.
func dotVec(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotRows computes out[r] = Σ w[r*stride+i]*x[i] for r in [0, len(out)): the
// products of len(out) rows of a row-major matrix, stride elements apart,
// against one vector. Every out[r] has the bits of Dot(w[r*stride:][:len(x)], x).
// A single dot product cannot use the lanes without changing its sum (see
// dotVec); four rows at a time can, one lane-wise accumulator per row, which
// is what the assembly does. Rows past the last multiple of four, and
// everything when the assembly is off, go through dotVec.
func DotRows(out, w []float64, stride int, x []float64) {
	n := len(x)
	if len(out) == 0 {
		return
	}
	_ = w[(len(out)-1)*stride : (len(out)-1)*stride+n] // the assembly's only bounds check
	r := 0
	if useAVX2 && n >= vecMin {
		r = len(out) &^ 3
		dotRowsAVX2(out[:r], w, stride, x)
	}
	for ; r < len(out); r++ {
		out[r] = dotVec(w[r*stride:r*stride+n], x)
	}
}

// SGDStep is the fused momentum and weight-decay update, out of place and
// with the contributor mean folded in, one pass over memory:
// v ← (μ·v + g·mean) + λ·x, then x' ← x − lr·v, reading x from src and writing
// x' to dst. dst may be src itself (the in-place step, mean 1), grad itself
// or disjoint from both; either way the bits are those of copying src to dst,
// scaling g by mean and stepping in place, because g·1 is g and element i of
// every operand is read before dst's is written. vel and grad must be at least
// as long as dst, src exactly as long.
func SGDStep(dst, src, vel, grad []float64, mean, mu, wd, lr float64) {
	src, vel, grad = src[:len(dst)], vel[:len(dst)], grad[:len(dst)]
	if useAVX2 && len(dst) >= vecMin {
		sgdStepAVX2(dst, src, vel, grad, mean, mu, wd, lr)
		return
	}
	sgdStepGo(dst, src, vel, grad, mean, mu, wd, lr)
}

// sgdStepGo is the Go loop of SGDStep.
func sgdStepGo(dst, src, vel, grad []float64, mean, mu, wd, lr float64) {
	src = src[:len(dst)]
	vel = vel[:len(dst)]
	grad = grad[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		x0, x1, x2, x3 := src[i], src[i+1], src[i+2], src[i+3]
		v0 := mu*vel[i] + grad[i]*mean + wd*x0
		v1 := mu*vel[i+1] + grad[i+1]*mean + wd*x1
		v2 := mu*vel[i+2] + grad[i+2]*mean + wd*x2
		v3 := mu*vel[i+3] + grad[i+3]*mean + wd*x3
		vel[i], vel[i+1], vel[i+2], vel[i+3] = v0, v1, v2, v3
		dst[i] = x0 - lr*v0
		dst[i+1] = x1 - lr*v1
		dst[i+2] = x2 - lr*v2
		dst[i+3] = x3 - lr*v3
	}
	for ; i < len(dst); i++ {
		x := src[i]
		v := mu*vel[i] + grad[i]*mean + wd*x
		vel[i] = v
		dst[i] = x - lr*v
	}
}
