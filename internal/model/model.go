// Package model provides the trainable models used to measure statistical
// efficiency: a noisy quadratic (analytically tractable, used by the
// convergence tests), multinomial logistic regression and a one-hidden-layer
// MLP (non-convex, the stand-in for deep networks).
// All models expose exact gradients over mini-batches; the test suite
// verifies them against finite differences.
//
// The gradient/loss inner loops run on the tensor kernels (DotRows/Dot/Axpy),
// and per-call scratch comes from pooled workspaces, so a single model instance
// supports the training engine's concurrent per-worker fan-out.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// ErrBadBatch is returned when a batch index is out of range.
var ErrBadBatch = errors.New("model: bad batch index")

// checkBatch reports the first index of batch outside [0, n), or an empty
// batch. The two-pass gradients call it before their first write, so a bad
// batch leaves grad untouched.
func checkBatch(batch []int, n int) error {
	if len(batch) == 0 {
		return errors.New("model: empty batch")
	}
	for _, idx := range batch {
		if idx < 0 || idx >= n {
			return fmt.Errorf("%w: %d", ErrBadBatch, idx)
		}
	}
	return nil
}

// Model is a differentiable training objective over a dataset.
//
// Thread safety: Loss, Gradient and Accuracy must be safe to call
// concurrently on a single instance, provided each call owns its params and
// grad vectors. Implementations keep no shared mutable scratch (per-call
// buffers come from pooled workspaces). The one sanctioned exception is
// internal randomness: a model whose Gradient draws noise (Quadratic) holds
// a private stream and additionally implements WorkerCloner; engines that
// fan gradient calls out across simulated workers must give each worker its
// own clone via ForWorker, both for safety and so every worker gets an
// independent, deterministically seeded noise stream.
type Model interface {
	// Dim returns the parameter dimensionality.
	Dim() int
	// Loss returns the mean loss of params over the given example
	// indices of the dataset bound at construction.
	Loss(params tensor.Vector, batch []int) (float64, error)
	// Gradient writes the mean gradient over batch into grad (which
	// must have length Dim) and returns the batch loss.
	Gradient(params, grad tensor.Vector, batch []int) (float64, error)
	// Init writes a reproducible initial parameter vector into params.
	Init(src *rng.Source, params tensor.Vector)
}

// Classifier is a Model that can score classification accuracy.
type Classifier interface {
	Model
	// Accuracy returns top-1 and top-k accuracy of params over batch.
	Accuracy(params tensor.Vector, batch []int, k int) (top1, topK float64, err error)
}

// WorkerCloner is implemented by models with internal mutable state (noise
// streams) that therefore cannot share one instance across concurrently
// running simulated workers.
type WorkerCloner interface {
	Model
	// CloneForWorker returns a model with the same objective but an
	// independent noise stream derived deterministically from the worker
	// index. It is a pure function of the receiver's immutable base
	// seed: concurrent or repeated calls yield identical clones.
	CloneForWorker(worker int) Model
}

// ForWorker returns the model instance simulated worker `worker` should
// compute gradients with: a per-worker clone when m carries internal
// randomness, and m itself for stateless models.
func ForWorker(m Model, worker int) Model {
	if c, ok := m.(WorkerCloner); ok {
		return c.CloneForWorker(worker)
	}
	return m
}

// Quadratic is the noisy strongly convex objective
// f(x) = ½ Σ aᵢ(xᵢ−x*ᵢ)²; Gradient adds N(0, noise²) per coordinate,
// modeling mini-batch gradient variance σ² with an analytic optimum.
// Batches are ignored.
//
// The noise stream is private mutable state: a single Quadratic is safe
// for sequential use only. Concurrent engines take per-worker clones via
// CloneForWorker, each with an independent stream derived from the same
// immutable base seed.
type Quadratic struct {
	// Curvature holds the positive diagonal aᵢ.
	Curvature tensor.Vector
	// Optimum is x*.
	Optimum tensor.Vector
	// Noise is the per-coordinate gradient noise stddev.
	Noise float64

	// noiseSeed is the immutable base of the gradient-noise streams; src
	// is this instance's private stream.
	noiseSeed int64
	src       *rng.Source
}

var _ Model = (*Quadratic)(nil)
var _ WorkerCloner = (*Quadratic)(nil)

// NewQuadratic builds a Quadratic with curvatures log-spaced in
// [1, condition] (condition number controls hardness) and a random optimum.
func NewQuadratic(src *rng.Source, dim int, condition, noise float64) (*Quadratic, error) {
	if dim < 1 {
		return nil, fmt.Errorf("model: quadratic dim %d", dim)
	}
	if condition < 1 {
		return nil, fmt.Errorf("model: condition %v < 1", condition)
	}
	noiseSeed := rng.Mix(src.Int63(), 1)
	q := &Quadratic{
		Curvature: tensor.New(dim),
		Optimum:   tensor.New(dim),
		Noise:     noise,
		noiseSeed: noiseSeed,
		src:       rng.New(noiseSeed),
	}
	for i := range q.Curvature {
		frac := 0.0
		if dim > 1 {
			frac = float64(i) / float64(dim-1)
		}
		q.Curvature[i] = math.Pow(condition, frac)
		q.Optimum[i] = src.Normal(0, 1)
	}
	return q, nil
}

// CloneForWorker implements WorkerCloner: the clone shares the (read-only)
// curvature and optimum but owns a noise stream seeded purely from
// (noiseSeed, worker), so cloning mutates nothing and is itself
// concurrency-safe.
func (q *Quadratic) CloneForWorker(worker int) Model {
	seed := rng.Mix(q.noiseSeed, worker+1)
	return &Quadratic{
		Curvature: q.Curvature,
		Optimum:   q.Optimum,
		Noise:     q.Noise,
		noiseSeed: seed,
		src:       rng.New(seed),
	}
}

// Dim implements Model.
func (q *Quadratic) Dim() int { return len(q.Curvature) }

// Loss implements Model. The batch is ignored.
func (q *Quadratic) Loss(params tensor.Vector, _ []int) (float64, error) {
	if len(params) != q.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	var loss float64
	for i, a := range q.Curvature {
		d := params[i] - q.Optimum[i]
		loss += 0.5 * a * d * d
	}
	return loss, nil
}

// Gradient implements Model: ∇f + noise.
func (q *Quadratic) Gradient(params, grad tensor.Vector, _ []int) (float64, error) {
	if len(params) != q.Dim() || len(grad) != q.Dim() {
		return 0, tensor.ErrShapeMismatch
	}
	var loss float64
	for i, a := range q.Curvature {
		d := params[i] - q.Optimum[i]
		loss += 0.5 * a * d * d
		grad[i] = a*d + q.src.Normal(0, q.Noise)
	}
	return loss, nil
}

// Init implements Model: a unit Gaussian start away from the optimum.
func (q *Quadratic) Init(src *rng.Source, params tensor.Vector) {
	for i := range params {
		params[i] = q.Optimum[i] + src.Normal(0, 2)
	}
}
