package core

import (
	"sync"

	"repro/internal/controller"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// eagerMailbox is the single-slot gradient source of eager-SGD: a newer
// gradient replaces an unconsumed older one (no cross-iteration
// accumulation), and the last contributed gradient is retained for stale
// re-contribution.
type eagerMailbox struct {
	// bufs lends the buffers, gradients and parameter versions alike
	// (Lease/Recycle: right shape, bounded free list); its own pending list
	// stays empty.
	bufs *Accumulator

	mu    sync.Mutex
	fresh tensor.Vector // unconsumed gradient, nil when empty
	stale tensor.Vector // last contributed gradient, nil before the first
}

func (b *eagerMailbox) Lease() tensor.Vector    { return b.bufs.Lease() }
func (b *eagerMailbox) Recycle(g tensor.Vector) { b.bufs.Recycle(g) }
func (b *eagerMailbox) Buffers() int            { return b.bufs.Buffers() }

// Dropped is always zero and Staleness empty: the mailbox overwrites, it has
// no staleness bound.
func (b *eagerMailbox) Dropped() int64   { return 0 }
func (b *eagerMailbox) Staleness() []int { return nil }

// Commit stores a fresh gradient, replacing any unconsumed one, and tags it
// with its compute step: eager-SGD's triggers count steps, not fresh gradients.
func (b *eagerMailbox) Commit(step, _ int64, g tensor.Vector) (int64, error) {
	b.mu.Lock()
	old := b.fresh
	b.fresh = g
	b.mu.Unlock()
	b.bufs.Recycle(old)
	return step, nil
}

// TakeN returns a copy of the gradient to contribute — the synchronization
// reduces it in place, and the original must survive for re-contribution:
// the fresh one if present (promoting it to stale), else the stale duplicate,
// else nothing. A contribution is one mini-batch, so eager-SGD's step is a
// mean over the contributing ranks.
func (b *eagerMailbox) TakeN(int64) (tensor.Vector, int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fresh != nil {
		b.bufs.Recycle(b.stale)
		b.stale, b.fresh = b.fresh, nil
	}
	if b.stale == nil {
		return nil, 0, nil
	}
	g := b.bufs.Lease()
	copy(g, b.stale)
	return g, 1, nil
}

// RunEagerWorker trains with eager-SGD semantics on the goroutine runtime:
// the controller (typically PolicyMajority or PolicySolo) fires each
// iteration's partial AllReduce, ready workers contribute their newest
// gradient, and workers whose compute has not landed re-contribute their
// previous gradient (a stale duplicate) — there is no cross-iteration
// accumulation or staleness weighting. It is the RNA worker with the mailbox
// in the Accumulator's place. All ranks end with identical parameters.
func RunEagerWorker(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bufs, err := NewAccumulator(cfg.Model.Dim(), 0)
	if err != nil {
		return nil, err
	}
	return rnaLoop(mesh, ctrl, cfg, &eagerMailbox{bufs: bufs}, nil)
}
