package opt

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Adam default hyperparameters (Kingma & Ba).
const (
	AdamBeta1 = 0.9
	AdamBeta2 = 0.999
	AdamEps   = 1e-8
)

// Adam is the Adam optimizer with decoupled-from-nothing classic L2 weight
// decay folded into the gradient:
//
//	g' ← g + λ·x
//	m  ← β₁·m + (1−β₁)·g'
//	u  ← β₂·u + (1−β₂)·g'²
//	x  ← x − γ_eff · (m / (1−β₁ᵗ)) / (√(u / (1−β₂ᵗ)) + ε)
//
// where γ_eff = γ·scale·schedule and t is the 1-based step count. Both
// moment vectors are fp64, so replicated Adam costs 2×dim×8 bytes of state
// per rank — the owner-computes sharded path keeps only the owned span's
// moments, dividing that footprint by the rank count.
//
// The update is strictly element-wise with state depending only on t, which
// is what makes sharding exact: an Adam over a parameter span holds
// bit-identical moments to the matching slice of a full-vector Adam.
type Adam struct {
	// LR is the base learning rate γ for a single contributing worker.
	LR float64
	// Beta1 and Beta2 are the moment decay rates; Eps stabilizes the
	// denominator. NewAdam fills the standard defaults.
	Beta1, Beta2, Eps float64
	// WeightDecay is λ, applied as classic L2 (added into the gradient).
	WeightDecay float64
	// Schedule optionally multiplies the learning rate per step.
	Schedule Schedule

	m, u tensor.Vector
	step int
}

// NewAdam returns an Adam optimizer for dim-dimensional parameters with the
// standard β₁/β₂/ε defaults.
func NewAdam(dim int, lr, weightDecay float64) (*Adam, error) {
	if dim < 1 {
		return nil, fmt.Errorf("opt: dim %d", dim)
	}
	if lr <= 0 {
		return nil, fmt.Errorf("opt: learning rate %v", lr)
	}
	if weightDecay < 0 {
		return nil, fmt.Errorf("opt: weight decay %v", weightDecay)
	}
	return &Adam{
		LR: lr, Beta1: AdamBeta1, Beta2: AdamBeta2, Eps: AdamEps,
		WeightDecay: weightDecay,
		m:           tensor.New(dim), u: tensor.New(dim),
	}, nil
}

// Step implements Optimizer.
func (o *Adam) Step(params, grad tensor.Vector, scale float64) (float64, error) {
	return o.StepTo(params, params, grad, 1, scale)
}

// StepTo implements Optimizer: the update above with g = mean·grad, reading
// x from src and writing it to dst.
func (o *Adam) StepTo(dst, src, grad tensor.Vector, mean, scale float64) (float64, error) {
	if len(dst) != len(o.m) || len(src) != len(o.m) || len(grad) != len(o.m) {
		return 0, tensor.ErrShapeMismatch
	}
	if scale < 0 {
		return 0, fmt.Errorf("opt: scale %v", scale)
	}
	lr := o.LR * scale
	if o.Schedule != nil {
		lr *= o.Schedule.Factor(o.step)
	}
	o.step++
	if scale == 0 {
		// Nothing contributed; the iteration is a no-op (but still advances
		// the schedule clock), matching SGD. The moments do not decay on a
		// skipped step — identical on every rank, so determinism holds.
		copyParams(dst, src)
		return 0, nil
	}
	t := float64(o.step)
	bc1 := 1 / (1 - math.Pow(o.Beta1, t))
	bc2 := 1 / (1 - math.Pow(o.Beta2, t))
	adamStep(dst, src, o.m, o.u, grad, mean, o.Beta1, o.Beta2, o.Eps, o.WeightDecay, lr, bc1, bc2)
	return lr, nil
}

// adamStep is the fused Adam kernel, 4-way unrolled like the tensor
// kernels: one pass over memory reads x from src and mean·g, updates both
// moments and writes x' to dst (which may be src or grad). bc1/bc2 are the
// reciprocal bias corrections 1/(1−βᵗ), hoisted so the per-element work is
// multiply-only.
func adamStep(dst, src, m, u, grad []float64, mean, b1, b2, eps, wd, lr, bc1, bc2 float64) {
	src = src[:len(dst)]
	m = m[:len(dst)]
	u = u[:len(dst)]
	grad = grad[:len(dst)]
	c1 := 1 - b1
	c2 := 1 - b2
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		x0, x1, x2, x3 := src[i], src[i+1], src[i+2], src[i+3]
		g0 := grad[i]*mean + wd*x0
		g1 := grad[i+1]*mean + wd*x1
		g2 := grad[i+2]*mean + wd*x2
		g3 := grad[i+3]*mean + wd*x3
		m0 := b1*m[i] + c1*g0
		m1 := b1*m[i+1] + c1*g1
		m2 := b1*m[i+2] + c1*g2
		m3 := b1*m[i+3] + c1*g3
		u0 := b2*u[i] + c2*g0*g0
		u1 := b2*u[i+1] + c2*g1*g1
		u2 := b2*u[i+2] + c2*g2*g2
		u3 := b2*u[i+3] + c2*g3*g3
		m[i], m[i+1], m[i+2], m[i+3] = m0, m1, m2, m3
		u[i], u[i+1], u[i+2], u[i+3] = u0, u1, u2, u3
		dst[i] = x0 - lr*(m0*bc1)/(math.Sqrt(u0*bc2)+eps)
		dst[i+1] = x1 - lr*(m1*bc1)/(math.Sqrt(u1*bc2)+eps)
		dst[i+2] = x2 - lr*(m2*bc1)/(math.Sqrt(u2*bc2)+eps)
		dst[i+3] = x3 - lr*(m3*bc1)/(math.Sqrt(u3*bc2)+eps)
	}
	for ; i < len(dst); i++ {
		x := src[i]
		g := grad[i]*mean + wd*x
		mv := b1*m[i] + c1*g
		uv := b2*u[i] + c2*g*g
		m[i] = mv
		u[i] = uv
		dst[i] = x - lr*(mv*bc1)/(math.Sqrt(uv*bc2)+eps)
	}
}

// StepCount implements Optimizer.
func (o *Adam) StepCount() int { return o.step }

// Reset implements Optimizer.
func (o *Adam) Reset() {
	o.m.Zero()
	o.u.Zero()
	o.step = 0
}

// StateBytes implements Optimizer: two fp64 moment vectors.
func (o *Adam) StateBytes() int64 { return int64(len(o.m)) * 16 }

// Moments exposes read-only views of the first and second moment vectors
// (the sharded bit-identity tests compare an owned span's state against the
// matching slice of a replicated optimizer).
func (o *Adam) Moments() (m, u tensor.Vector) { return o.m, o.u }

var _ Optimizer = (*Adam)(nil)
