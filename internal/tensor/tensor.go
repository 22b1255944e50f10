// Package tensor provides the dense vector math used throughout the RNA
// library: gradients and model parameters are flat float64 vectors, and the
// ring AllReduce operates on contiguous chunks of them.
//
// The package is deliberately small and allocation-conscious: every hot-path
// operation has an in-place form, and chunking never copies data.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrShapeMismatch is returned when two vectors that must have equal length
// do not.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

// Vector is a dense one-dimensional tensor. It is the unit of exchange in
// all collectives: a gradient, a model, or a chunk of either.
type Vector []float64

// New returns a zeroed vector of length n.
func New(n int) Vector {
	return make(Vector, n)
}

// FromSlice copies data into a freshly allocated Vector, so later mutation
// of the argument does not alias the result.
func FromSlice(data []float64) Vector {
	v := make(Vector, len(data))
	copy(v, data)
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CopyFrom copies src into v. The lengths must match.
func (v Vector) CopyFrom(src Vector) error {
	if len(v) != len(src) {
		return fmt.Errorf("%w: dst %d, src %d", ErrShapeMismatch, len(v), len(src))
	}
	copy(v, src)
	return nil
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Add accumulates other into v element-wise (v += other).
func (v Vector) Add(other Vector) error {
	if len(v) != len(other) {
		return fmt.Errorf("%w: dst %d, src %d", ErrShapeMismatch, len(v), len(other))
	}
	addVec(v, other)
	return nil
}

// Sub subtracts other from v element-wise (v -= other).
func (v Vector) Sub(other Vector) error {
	if len(v) != len(other) {
		return fmt.Errorf("%w: dst %d, src %d", ErrShapeMismatch, len(v), len(other))
	}
	diffTo(v, v, other)
	return nil
}

// SumInto computes dst = a + b in a single fused pass, bit-identical to
// copying a into dst and adding b but without the extra memory sweep. The
// parameter-server store builds successor snapshots with it.
func SumInto(dst, a, b Vector) error {
	if len(dst) != len(a) || len(dst) != len(b) {
		return fmt.Errorf("%w: dst %d, a %d, b %d", ErrShapeMismatch, len(dst), len(a), len(b))
	}
	sumTo(dst, a, b)
	return nil
}

// DiffInto computes dst = a − b in a single fused pass, bit-identical to
// copying a into dst and subtracting b. The parameter-server client and the
// loopback form each chunk of a hierarchical member's delta with it, in the
// buffer the chunk is sent from.
func DiffInto(dst, a, b Vector) error {
	if len(dst) != len(a) || len(dst) != len(b) {
		return fmt.Errorf("%w: dst %d, a %d, b %d", ErrShapeMismatch, len(dst), len(a), len(b))
	}
	diffTo(dst, a, b)
	return nil
}

// AverageInto computes dst = (a + b)/2 in a single fused pass, the
// model-averaging update the parameter server applies, bit-identical to the
// element-wise (a[i] + b[i])/2.
func AverageInto(dst, a, b Vector) error {
	if len(dst) != len(a) || len(dst) != len(b) {
		return fmt.Errorf("%w: dst %d, a %d, b %d", ErrShapeMismatch, len(dst), len(a), len(b))
	}
	avgTo(dst, a, b)
	return nil
}

// Scale multiplies v by c in place.
func (v Vector) Scale(c float64) {
	scaleVec(v, c)
}

// AddScaled computes v += a*x as one fused multiply-add pass. It is the
// primitive behind the accumulator's weighted local reduction and the SGD
// parameter update.
func (v Vector) AddScaled(a float64, x Vector) error {
	if len(v) != len(x) {
		return fmt.Errorf("%w: dst %d, src %d", ErrShapeMismatch, len(v), len(x))
	}
	axpyVec(v, a, x)
	return nil
}

// Axpy computes v += a*x, the classic BLAS primitive used by every SGD
// update in the repository. It is an alias for AddScaled.
func (v Vector) Axpy(a float64, x Vector) error {
	return v.AddScaled(a, x)
}

// Dot returns the inner product of v and other.
func (v Vector) Dot(other Vector) (float64, error) {
	if len(v) != len(other) {
		return 0, fmt.Errorf("%w: a %d, b %d", ErrShapeMismatch, len(v), len(other))
	}
	return dotVec(v, other), nil
}

// Norm2 returns the Euclidean (l2) norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute element of v.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Equal reports whether v and other have the same length and every element
// differs by at most tol.
func (v Vector) Equal(other Vector, tol float64) bool {
	if len(v) != len(other) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-other[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element of v is finite (no NaN or Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Mean computes the element-wise mean of vs into a new vector. All vectors
// must share one length; an empty input is an error.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: mean of zero vectors")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		if err := out.Add(v); err != nil {
			return nil, err
		}
	}
	out.Scale(1 / float64(len(vs)))
	return out, nil
}
