package model

import "repro/internal/tensor"

// Layer-aware gradients. A LayeredModel's backward pass reports each piece
// of the gradient the moment it is final — in reverse layer order, since
// backprop finalizes the output layer's gradient first — while computing
// exactly the bits Gradient computes. The training stack reduces the whole
// gradient after the pass and calls Gradient; the benchmark's tracing
// wrapper (benchmark/trace.go) forwards this interface.

// Span is a contiguous half-open range [Lo, Hi) of the flat parameter
// vector.
type Span struct {
	Lo, Hi int
}

// Len returns the number of parameters in the span.
func (s Span) Len() int { return s.Hi - s.Lo }

// LayeredModel is a Model whose backward pass can emit gradient spans as
// they finish, in reverse layer order.
type LayeredModel interface {
	Model
	// GradientBuckets returns the emission spans of the parameter vector,
	// in the order GradientLayers finalizes them. The spans partition
	// [0, Dim()) and are a pure function of the model architecture, so
	// every SPMD rank computes the same list.
	GradientBuckets() []Span
	// GradientLayers computes the batch gradient exactly like Gradient —
	// bit-identical grad and loss — but calls emit(i) as soon as span i of
	// GradientBuckets is fully accumulated and will not be written again.
	// A non-nil error from emit aborts the pass.
	GradientLayers(params, grad tensor.Vector, batch []int, emit func(layer int) error) (float64, error)
}
