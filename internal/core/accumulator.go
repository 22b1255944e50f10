// Package core implements the paper's primary contribution: the RNA
// (Randomized Non-blocking AllReduce) worker runtime. It provides
//
//   - Accumulator: the comm-thread gradient buffer with the
//     staleness-weighted local reduction of Section 3.3
//     (g' = Σ[t−(k−τ)+1]·g_t / Σ[t−(k−τ)+1]) and bounded-staleness
//     overwrite, t being the parameter version a gradient was computed for;
//   - RunRNAWorker: a goroutine-runtime training worker with decoupled
//     compute and communication threads (cross-iteration execution,
//     Fig. 4) sharing immutable parameter versions, driven by a
//     controller.Controller and a collective partial reduction;
//     RunEagerWorker and RunHierarchicalWorker are the same loop with
//     another gradient source or a parameter-server hook;
//   - RunBSPWorker: the Horovod-style blocking baseline on the same
//     runtime and the same sync stages (stage.go).
package core

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// Accumulator buffers the gradients a worker computes between two partial
// AllReduces. When the worker contributes, the buffered gradients are
// locally reduced with weights linear in their iteration (newer gradients
// weigh more) and the buffer is reset to null — exactly the WriteOp/ReadOp
// behaviour of Section 6.
//
// The accumulator owns the gradient buffers and lends them out, so one
// buffer carries a gradient from Model.Gradient to the optimizer step: the
// compute thread Leases a buffer, has the model write into it and Commits
// it; the communication thread Takes the reduction (folded in place into the
// oldest survivor), reduces it across ranks in place, steps the optimizer
// from it and Recycles it. Every leased buffer is dim long with capacity
// ≥ dim+1: the spare element is the contributor-flag slot of the partial
// AllReduce (collective.PartialAllReduceInPlace), so the taken buffer can be
// resliced to dim+1 and reduced without a copy. A buffer that is never
// recycled is simply garbage-collected.
type Accumulator struct {
	mu      sync.Mutex
	dim     int
	bound   int64
	grads   []tensor.Vector // committed buffers in commit order, oldest first
	iters   []int64         // their stamps: local steps for Put, versions+1 in rnaLoop
	dropped int64
	// lastTake is the last synchronization that drained the buffer (−1: none),
	// taken counts the gradients Take handed on by their gap to it.
	lastTake int64
	taken    []int

	// free holds recycled buffers for future Leases, at most maxFree of
	// them: the steady state needs one per gradient the bounded-staleness
	// window lets compute run ahead plus one on each thread, and two more
	// ride out a compute thread that was descheduled for a few
	// synchronizations and catches up in one go (it copies nothing and takes
	// no lock any more, so it does; the buffers exist by then, and dropping
	// them only to allocate them again at the next catch-up fed the collector
	// that caused the next stall). A burst beyond that goes to the GC instead
	// of pinning memory for the run.
	free    []tensor.Vector
	maxFree int
}

// NewAccumulator returns an accumulator for dim-sized gradients that keeps
// at most `bound` iterations of staleness (older entries are overwritten,
// per the bounded-staleness design the paper adopts from SSP). bound < 1 is
// treated as unbounded.
func NewAccumulator(dim int, bound int) (*Accumulator, error) {
	if dim < 1 {
		return nil, fmt.Errorf("core: accumulator dim %d", dim)
	}
	a := &Accumulator{dim: dim, bound: 1<<62 - 1, maxFree: 2, lastTake: -1}
	if bound >= 1 {
		a.bound, a.maxFree = int64(bound), bound+4
	}
	a.taken = make([]int, max(bound, 1))
	return a, nil
}

// Lease hands out a gradient buffer: dim long, capacity ≥ dim+1, contents
// unspecified. The holder fills it and Commits it (or drops it).
func (a *Accumulator) Lease() tensor.Vector {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		g := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return g
	}
	a.mu.Unlock()
	return make(tensor.Vector, a.dim, a.dim+1)
}

// leased reports whether g has the shape of a buffer Lease hands out.
func (a *Accumulator) leased(g tensor.Vector) bool {
	return len(g) == a.dim && cap(g) > a.dim
}

// Commit buffers the leased gradient g under stamp: the synchronization whose
// parameters-to-be it was computed for, one past the version it read. The
// compute step is not kept. The accumulator owns g from here on; the caller
// must not touch it again. tag is the first synchronization that can still
// take g, read under the lock that orders Commit against Take: announcing it
// says "this rank holds a gradient no synchronization has taken".
func (a *Accumulator) Commit(_, stamp int64, g tensor.Vector) (tag int64, err error) {
	if !a.leased(g) {
		return 0, fmt.Errorf("core: commit of a %d/%d-element buffer, want a leased %d: %w",
			len(g), cap(g), a.dim, tensor.ErrShapeMismatch)
	}
	a.mu.Lock()
	a.grads = append(a.grads, g)
	a.iters = append(a.iters, stamp)
	tag = a.lastTake + 1
	a.mu.Unlock()
	return tag, nil
}

// Put buffers a copy of the gradient computed at iteration iter, so callers
// may reuse their vector: Lease, copy, Commit.
func (a *Accumulator) Put(iter int64, grad tensor.Vector) error {
	if len(grad) != a.dim {
		return tensor.ErrShapeMismatch
	}
	g := a.Lease()
	copy(g, grad)
	_, err := a.Commit(iter, iter, g)
	return err
}

// Recycle returns a buffer obtained from Lease or Take for reuse. Slices
// that are not leased buffers (wrong length, no flag slot) are ignored, as
// are buffers beyond the free-list bound.
func (a *Accumulator) Recycle(g tensor.Vector) {
	if !a.leased(g) {
		return
	}
	a.mu.Lock()
	a.release(g)
	a.mu.Unlock()
}

// release puts g on the free list if there is room; a.mu must be held.
func (a *Accumulator) release(g tensor.Vector) {
	if len(a.free) < a.maxFree {
		a.free = append(a.free, g)
	}
}

// Len returns the number of buffered gradients.
func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.grads)
}

// Dropped returns how many gradients were discarded by the staleness bound.
func (a *Accumulator) Dropped() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// Staleness returns how many gradients Take handed on, by τ = current − stamp
// (bound buckets; an unbounded accumulator has one).
func (a *Accumulator) Staleness() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.taken...)
}

// Take drains the buffer for synchronization current: stale entries
// (τ = current − stamp ≥ bound) are dropped, the survivors are combined
// with the paper's weights w_t = t − (current − τ) + 1 where τ is the
// largest surviving gap, and the buffer is reset. ok is false when nothing
// survives — the worker then contributes a null gradient.
//
// The reduction Σ (w_i/W)·g_i is folded in commit order into the oldest
// survivor's own buffer — scaled by w₀/W, then += (w_i/W)·g_i — and that
// leased buffer is returned; a single survivor (weight 1 of 1) is handed
// over untouched. The caller owns the result and should Recycle it. The
// other survivors go back to the free list. err is always nil.
func (a *Accumulator) Take(current int64) (grad tensor.Vector, ok bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastTake = current
	keep := 0
	for i, it := range a.iters {
		gap := current - it
		if gap >= a.bound && gap > 0 {
			a.dropped++
			a.release(a.grads[i])
			continue
		}
		a.taken[min(max(gap, 0), int64(len(a.taken)-1))]++
		a.grads[keep], a.iters[keep] = a.grads[i], it
		keep++
	}
	if keep > 0 {
		grad = a.fold(current, a.grads[:keep], a.iters[:keep])
	}
	// Reset to null: after each AllReduce the inputs are overwritten so
	// outdated gradients are never reused (Section 6). Every survivor now
	// belongs to the caller or the free list.
	clear(a.grads)
	a.grads, a.iters = a.grads[:0], a.iters[:0]
	return grad, keep > 0, nil
}

// fold reduces the survivors into survivors[0] and releases the rest; a.mu
// must be held.
func (a *Accumulator) fold(current int64, survivors []tensor.Vector, iters []int64) tensor.Vector {
	// τ = largest gap among survivors; weight of entry t is
	// t − (current − τ) + 1 = t − base, so the oldest survivor weighs 1 and
	// newer entries weigh linearly more.
	var tau int64
	for _, it := range iters {
		if g := current - it; g > tau {
			tau = g
		}
	}
	base := current - tau - 1
	var total float64
	for _, it := range iters {
		total += float64(it - base)
	}
	out := survivors[0]
	if len(survivors) == 1 {
		return out
	}
	out.Scale(float64(iters[0]-base) / total)
	for i, g := range survivors[1:] {
		_ = out.AddScaled(float64(iters[i+1]-base)/total, g) // equal lengths: Commit checked
		a.release(g)
	}
	return out
}

// OldestIter returns the iteration of the oldest buffered gradient, and
// false when empty.
func (a *Accumulator) OldestIter() (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.iters) == 0 {
		return 0, false
	}
	min := a.iters[0]
	for _, it := range a.iters[1:] {
		if it < min {
			min = it
		}
	}
	return min, true
}
