// Package core implements the paper's primary contribution: the RNA
// (Randomized Non-blocking AllReduce) worker runtime. It provides
//
//   - Accumulator: the comm-thread gradient buffer with the
//     staleness-weighted local reduction of Section 3.3 and
//     bounded-staleness overwrite. Its N surviving gradients g_t keep the
//     paper's relative weights [t−(k−τ)+1], t being the parameter version a
//     gradient was computed for, normalised to sum to N:
//     g' = N·Σ[t−(k−τ)+1]·g_t / Σ[t−(k−τ)+1]. The rank brings N
//     mini-batches to the synchronization, and the update is one step on
//     all the mini-batches it carries (controller.Step);
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

	"repro/internal/controller"
	"repro/internal/tensor"
)

// Accumulator buffers the gradients a worker computes between two partial
// AllReduces. When the worker contributes, the buffered gradients are
// locally reduced with weights linear in their iteration (newer gradients
// weigh more) and the buffer is reset to null — exactly the WriteOp/ReadOp
// behaviour of Section 6.
//
// The accumulator owns the gradient buffers and lends them out, so one
// buffer carries a gradient from Model.Gradient to the optimizer step and on
// into the parameters: the compute thread Leases a buffer, has the model
// write into it and Commits it; the communication thread Takes the reduction
// (folded in place into the oldest surviving slot), reduces it across ranks
// in place, steps the optimizer into it and publishes it as the next
// parameter version, and the version it supersedes comes back through
// Recycle (versions, worker.go). Every leased buffer is dim long with
// capacity ≥ dim+1: the spare element is the contributor-flag slot of the
// partial AllReduce (collective.PartialAllReduceInPlace), so the taken buffer
// can be resliced to dim+1 and reduced without a copy. A buffer that is never
// recycled is simply garbage-collected.
type Accumulator struct {
	mu    sync.Mutex
	dim   int
	bound int64
	// pending is what Commit left since the last Take, oldest first, and
	// sums[i] the buffer holding pending[i]'s sum: a gradient's weight depends
	// on its stamp alone (local steps for Put, versions+1 in rnaLoop), so a
	// run of equal stamps shares one slot.
	pending []controller.Slot
	sums    []tensor.Vector
	dropped int64
	// lastTake is the last synchronization that drained the buffer (−1: none),
	// taken counts the gradients Take handed on by their gap to it.
	lastTake int64
	taken    []int

	// free holds recycled buffers for future Leases, at most maxFree;
	// allocated counts the Leases that found it empty.
	free      []tensor.Vector
	allocated int
}

// maxFree bounds the free list. rnaLoop's versions and gradients share this
// pool, and it never has more than five buffers in use at once, whatever the
// staleness bound: the current version and the compute thread's lease, plus
// at most three of
//
//   - the pending slots: their stamps never decrease and one publish falls
//     between two Takes, so at most three — that of the gradient in flight
//     at the last Take, that Take's synchronization and, once it is
//     published, the next;
//   - the communication thread's buffer (taken, or leased for a null
//     contribution) until it is published, while at most two are pending:
//     the third stamp needs that publish;
//   - a pinned version a publish superseded: every pending gradient was
//     committed before the pin, so at most two, and none once the
//     communication thread has taken again.
//
// The eager mailbox's fresh and stale gradients stand in for the slots under
// the same bound.
//
// The current version is never free, so the free list needs four places to
// keep every buffer: a retired version is never dropped to the GC, and Lease
// allocates at most four, the fifth being the initial parameters. Only a
// burst beyond that (Put without Take) goes to the GC.
const maxFree = 4

// NewAccumulator returns an accumulator for dim-sized gradients that keeps
// at most `bound` iterations of staleness (older entries are overwritten,
// per the bounded-staleness design the paper adopts from SSP). bound < 1 is
// treated as unbounded.
func NewAccumulator(dim int, bound int) (*Accumulator, error) {
	if dim < 1 {
		return nil, fmt.Errorf("core: accumulator dim %d", dim)
	}
	a := &Accumulator{dim: dim, bound: 1<<62 - 1, lastTake: -1}
	if bound >= 1 {
		a.bound = int64(bound)
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
	a.allocated++
	a.mu.Unlock()
	return make(tensor.Vector, a.dim, a.dim+1)
}

// Buffers returns how many buffers Lease has allocated.
func (a *Accumulator) Buffers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocated
}

// leased reports whether g has the shape of a buffer Lease hands out.
func (a *Accumulator) leased(g tensor.Vector) bool {
	return len(g) == a.dim && cap(g) > a.dim
}

// Commit buffers the leased gradient g under stamp: the synchronization whose
// parameters-to-be it was computed for, one past the version it read. The
// compute step is not kept. Under the newest pending stamp g is added into
// that slot and goes straight back to the free list; otherwise it opens a
// slot. The accumulator owns g from here on; the caller must not touch it
// again. tag is the first synchronization that can still take g, read under
// the lock that orders Commit against Take: announcing it says "this rank
// holds a gradient no synchronization has taken".
func (a *Accumulator) Commit(_, stamp int64, g tensor.Vector) (tag int64, err error) {
	if !a.leased(g) {
		return 0, fmt.Errorf("core: commit of a %d/%d-element buffer, want a leased %d: %w",
			len(g), cap(g), a.dim, tensor.ErrShapeMismatch)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.pending); n > 0 && a.pending[n-1].Stamp == stamp {
		_ = a.sums[n-1].Add(g) // equal lengths: both are leased
		a.pending[n-1].N++
		a.release(g)
	} else {
		a.pending = append(a.pending, controller.Slot{Stamp: stamp, N: 1})
		a.sums = append(a.sums, g)
	}
	return a.lastTake + 1, nil
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
	if len(a.free) < maxFree {
		a.free = append(a.free, g)
	}
}

// Len returns the number of buffered gradients.
func (a *Accumulator) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.pending {
		n += s.N
	}
	return n
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

// Take is TakeN reporting only whether the rank contributes.
func (a *Accumulator) Take(current int64) (grad tensor.Vector, ok bool, err error) {
	grad, n, err := a.TakeN(current)
	return grad, n > 0, err
}

// TakeN drains the buffer for synchronization current under
// controller.Weigh: stale entries (τ = current − stamp ≥ bound) are dropped,
// the survivors are combined with the paper's relative weights
// w_t = t − (current − τ) + 1 where τ is the largest surviving gap, and the
// buffer is reset. n is the number of gradients that survive, the
// mini-batches the contribution carries: 0 when nothing survives — the worker
// then contributes a null gradient.
//
// A slot's m gradients share one weight, so the reduction is
// Σ (w_j·n/W)·sum_j with W = Σ m_j·w_j: its weights sum to n, and a lone
// slot's gradients are simply summed. It is folded in commit order into the
// oldest surviving slot's own buffer — scaled by its weight unless that is 1,
// then += (w_j·n/W)·sum_j — and that leased buffer is returned; a single
// surviving gradient is handed over untouched. The caller owns the result and
// should Recycle it. The other slots go back to the free list. err is always
// nil.
func (a *Accumulator) TakeN(current int64) (grad tensor.Vector, n int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastTake = current
	n = controller.Weigh(current, a.bound, a.pending)
	for i, s := range a.pending {
		if s.W == 0 {
			a.dropped += int64(s.N)
			a.release(a.sums[i])
			continue
		}
		a.taken[min(max(current-s.Stamp, 0), int64(len(a.taken)-1))] += s.N
		if grad == nil {
			grad = a.sums[i]
			if s.W != 1 {
				grad.Scale(s.W)
			}
			continue
		}
		_ = grad.AddScaled(s.W, a.sums[i]) // equal lengths: Commit checked
		a.release(a.sums[i])
	}
	// Reset to null: after each AllReduce the inputs are overwritten so
	// outdated gradients are never reused (Section 6). Every survivor now
	// belongs to the caller or the free list.
	clear(a.sums)
	a.pending, a.sums = a.pending[:0], a.sums[:0]
	return grad, n, nil
}
