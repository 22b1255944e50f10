package model

import "sync"

// workspace holds the per-call scratch buffers of the model hot paths
// (hidden activations, class probabilities, backprop deltas, ranking
// order). Calls borrow one from a shared pool instead of allocating —
// or, worse, sharing buffers across goroutines — which is what makes
// Loss/Gradient/Accuracy safe for the engine's concurrent per-worker
// fan-out. Every buffer is fully (re)written before it is read, so pooled
// reuse cannot leak values between calls.
type workspace struct {
	hid   []float64
	probs []float64
	order []int
	// stash holds the MLP backward pass's layer-1 coefficients hidden-major
	// (hidden × batch: one row of W1's coefficients is contiguous), written
	// by the pass over the examples and read by the pass over the rows of
	// W1; delta is one example's δh before it is scattered into the stash,
	// and xs the batch's example vectors.
	stash []float64
	delta []float64
	xs    [][]float64
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

func getWorkspace() *workspace { return wsPool.Get().(*workspace) }

func (ws *workspace) release() { wsPool.Put(ws) }

// grow returns buf resized to n elements, reallocating only when capacity
// is insufficient.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// growInts is grow for index buffers.
func growInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}
