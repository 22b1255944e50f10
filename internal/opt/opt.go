// Package opt implements the SGD optimizer the paper's setups use
// (momentum + weight decay, Section 7.2) and the learning-rate schedules:
// step decay and the Linear Scaling Rule that RNA applies per
// synchronization: the learning rate follows the number of mini-batches the
// update carries (Goyal et al.'s effective batch), so each one moves the
// model as far as under BSP.
package opt

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// Optimizer is the stateful update rule shared by SGD and Adam. All
// implementations are strictly element-wise with state that depends only on
// the step count, which is what makes owner-computes sharding exact: an
// optimizer constructed over a span of the parameter vector, fed the
// matching span of every gradient, holds bit-identical state to the same
// span of a full-vector optimizer on the same schedule.
type Optimizer interface {
	// Step applies one update with gradient grad and the given Linear
	// Scaling factor, returning the effective learning rate used. scale==0
	// is a no-op that still advances the schedule clock. It is
	// StepTo(params, params, grad, 1, scale).
	Step(params, grad tensor.Vector, scale float64) (float64, error)
	// StepTo is the out-of-place step: it reads the parameters from src and
	// the gradient as mean·grad, and writes the updated parameters to dst,
	// which is src itself, grad itself (RNA's reduced gradient becomes the
	// next parameter version) or disjoint from both. src and grad are not
	// written unless dst is one of them. The bits are those of copying src to
	// a disjoint dst, scaling grad by mean and calling Step(dst, grad, scale),
	// in one pass: every kernel reads element i of its operands before it
	// writes element i of dst.
	StepTo(dst, src, grad tensor.Vector, mean, scale float64) (float64, error)
	// StepCount returns the number of Step calls so far.
	StepCount() int
	// Reset zeroes the optimizer state and step counter.
	Reset()
	// StateBytes reports the persistent optimizer-state footprint — the
	// memory a sharded deployment divides by the rank count.
	StateBytes() int64
}

// SGD is stochastic gradient descent with momentum and weight decay:
//
//	v ← μ·v + g + λ·x
//	x ← x − γ_eff·v
//
// where γ_eff = γ·scale and scale carries the Linear Scaling Rule factor.
type SGD struct {
	// LR is the base learning rate γ, that of a step on all n workers'
	// mini-batches (scale 1).
	LR float64
	// Momentum is μ (0 disables momentum).
	Momentum float64
	// WeightDecay is λ.
	WeightDecay float64
	// Schedule optionally multiplies the learning rate per step.
	Schedule Schedule

	velocity tensor.Vector
	step     int
}

// NewSGD returns an SGD optimizer for dim-dimensional parameters.
func NewSGD(dim int, lr, momentum, weightDecay float64) (*SGD, error) {
	if dim < 1 {
		return nil, fmt.Errorf("opt: dim %d", dim)
	}
	if lr <= 0 {
		return nil, fmt.Errorf("opt: learning rate %v", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("opt: momentum %v", momentum)
	}
	if weightDecay < 0 {
		return nil, fmt.Errorf("opt: weight decay %v", weightDecay)
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: tensor.New(dim)}, nil
}

// Step applies one update with gradient grad and the given Linear Scaling
// factor (1 for a full-participation update; B/n under RNA's partial
// collectives, B the mini-batches the update carries). It returns the
// effective learning rate used.
func (o *SGD) Step(params, grad tensor.Vector, scale float64) (float64, error) {
	return o.StepTo(params, params, grad, 1, scale)
}

// StepTo implements Optimizer: v ← μ·v + mean·g + λ·x, x' ← x − γ_eff·v,
// reading x from src and writing x' to dst.
func (o *SGD) StepTo(dst, src, grad tensor.Vector, mean, scale float64) (float64, error) {
	if len(dst) != len(o.velocity) || len(src) != len(o.velocity) || len(grad) != len(o.velocity) {
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
		// Nothing contributed; the iteration is a no-op (but still
		// advances the schedule clock).
		copyParams(dst, src)
		return 0, nil
	}
	if o.Momentum == 0 && o.WeightDecay == 0 {
		// Plain SGD: v = mean·g, x' = x − lr·v as one fused AddScaled pass
		// (after a copy when out of place: no workload runs plain SGD). g is
		// in v before dst, which may be g, is written.
		copy(o.velocity, grad)
		if mean != 1 {
			o.velocity.Scale(mean)
		}
		copyParams(dst, src)
		return lr, dst.AddScaled(-lr, o.velocity)
	}
	tensor.SGDStep(dst, src, o.velocity, grad, mean, o.Momentum, o.WeightDecay, lr)
	return lr, nil
}

// copyParams copies src to dst unless they are the same vector.
func copyParams(dst, src tensor.Vector) {
	if len(dst) > 0 && &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// StepCount returns the number of Step calls so far.
func (o *SGD) StepCount() int { return o.step }

// Reset zeroes the optimizer state (velocity and step counter).
func (o *SGD) Reset() {
	o.velocity.Zero()
	o.step = 0
}

// StateBytes implements Optimizer: one fp64 velocity vector.
func (o *SGD) StateBytes() int64 { return int64(len(o.velocity)) * 8 }

// Velocity exposes a read-only view of the momentum vector (the sharded
// bit-identity tests compare an owned span's state against the matching
// slice of a replicated optimizer).
func (o *SGD) Velocity() tensor.Vector { return o.velocity }

var _ Optimizer = (*SGD)(nil)

// Schedule scales the learning rate as training progresses.
type Schedule interface {
	// Factor returns the multiplier applied at the given step.
	Factor(step int) float64
}

// StepDecay multiplies the rate by Factor each time the step count crosses
// a boundary — the paper's ResNet50 schedule decays to 0.1× at epochs
// 30/60/80.
type StepDecay struct {
	Boundaries []int
	Decay      float64
}

var _ Schedule = StepDecay{}

// Factor implements Schedule.
func (s StepDecay) Factor(step int) float64 {
	f := 1.0
	for _, b := range s.Boundaries {
		if step >= b {
			f *= s.Decay
		}
	}
	return f
}

// Constant is the identity schedule.
type Constant struct{}

var _ Schedule = Constant{}

// Factor implements Schedule.
func (Constant) Factor(int) float64 { return 1 }

// LinearScale returns the Linear Scaling Rule factor for an update that
// carries `batches` mini-batches on a cluster of n workers: the learning rate
// is set for BSP's n mini-batches per step, so the factor is batches/n. A
// synchronization may carry more than n when ranks bring several mini-batches
// each (cross-iteration accumulation, Fig. 4). It errors on n < 1 and on a
// negative batch count.
func LinearScale(batches, n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("opt: %d workers", n)
	}
	if batches < 0 {
		return 0, errors.New("opt: negative mini-batch count")
	}
	return float64(batches) / float64(n), nil
}
