package tensor

// Unrolled element-wise kernels. Every hot loop in the repository — the ring
// reduce, the accumulator's weighted mean, the SGD update — bottoms out in
// one of these. The 4-way unrolling shortens the loop-carried dependency
// chain and lets the compiler keep four elements in flight per iteration;
// the explicit re-slice (`b = b[:len(a)]`) eliminates bounds checks in the
// body. Pairwise FP addition is commutative bitwise, so addVec/subVec keep
// results bit-identical to the naive loops they replace.

// addVec computes a[i] += b[i].
func addVec(a, b []float64) {
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

// subVec computes a[i] -= b[i].
func subVec(a, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] -= b[i]
		a[i+1] -= b[i+1]
		a[i+2] -= b[i+2]
		a[i+3] -= b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] -= b[i]
	}
}

// scaleVec computes a[i] *= c.
func scaleVec(a []float64, c float64) {
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

// avgVec computes a[i] = (a[i]+b[i])/2 — the parameter-server Average mode
// fused into one pass. The expression matches the scalar loop it replaces
// exactly (add, then halve), so results stay bit-identical.
func avgVec(a, b []float64) {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] = (a[i] + b[i]) / 2
		a[i+1] = (a[i+1] + b[i+1]) / 2
		a[i+2] = (a[i+2] + b[i+2]) / 2
		a[i+3] = (a[i+3] + b[i+3]) / 2
	}
	for ; i < len(a); i++ {
		a[i] = (a[i] + b[i]) / 2
	}
}

// sumTo computes dst[i] = a[i] + b[i] in one pass — the out-of-place fused
// form of addVec, bit-identical to clone-then-add.
func sumTo(dst, a, b []float64) {
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

// diffTo computes dst[i] = a[i] - b[i] in one pass — the out-of-place fused
// form of subVec, bit-identical to clone-then-subtract.
func diffTo(dst, a, b []float64) {
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

// avgTo computes dst[i] = (a[i]+b[i])/2 in one pass — the out-of-place
// fused form of avgVec, bit-identical to clone-then-average.
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
