package core

import (
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/opt"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Sync stages: what a synchronization does between the trigger and the next
// compute step. bspLoop and rnaLoop (worker.go) own the trigger, the
// threads and the bookkeeping; a stage owns the reduction and the update.
// It is chosen once per run, by newStage, from TrainConfig, the mesh size,
// the length of the vector the loop reduces and whether the rank is a
// hierarchical group member with a parameter-server exchange:
//
//   - owner-computes: reduce-scatter, every rank steps the span it owns,
//     parameter allgather (shardedReducer). Selected by ShardedUpdate, and by
//     AlgoAuto itself wherever it would run the pipelined ring, and at 2
//     ranks (ownerComputes): the two ring halves ship the ring's bytes, the
//     result is bit-identical, and the optimizer step runs once per element
//     instead of once per element per rank. A hierarchical member always
//     runs it, whatever its group size: its table follows the parameter
//     server's chunks, and on an exchange synchronization each member
//     exchanges the span it owns between its step and the allgather, which
//     then ships the pulled global model (exchanger, hierarchical.go);
//   - replicated: AllReduce the whole gradient, every rank steps the whole
//     vector (replicatedReducer): the tree, a pinned Algorithm.
//
// Each reduction has a full-participation entry (reduce, for BSP) and a
// partial-participation entry (reducePartial, for RNA and eager-SGD).

// reducer is the part of a synchronization that differs between the
// replicated and the owner-computes update. Each reducer holds the rank's
// mesh and reduces the whole vector on it.
type reducer interface {
	// reduce averages grad over all ranks. Afterwards the part this rank
	// owns (all of it when replicated) is final.
	reduce(k int64, grad tensor.Vector) error
	// reducePartial sums buf over the contributing ranks and returns their
	// count, identical on every rank; with contributes false buf's contents
	// are ignored. buf is a gradSource buffer: the element after the last
	// one is spare.
	reducePartial(k int64, buf tensor.Vector, contributes bool) (int, error)
	// update steps the parameters over the owned span from the reduced
	// gradient times mean (the contributors' mean of a partial sum, 1 for
	// BSP's average): it reads them from cur, writes them to next and leaves
	// next complete and identical on all ranks. next is cur itself (BSP, whose
	// one vector is updated in place) or g (RNA, whose reduced buffer becomes
	// the next version); cur is not written otherwise. A nil g (owner-computes
	// with an exchange due only) skips the step and exchanges cur's owned
	// span.
	update(k int64, cur, next, g tensor.Vector, mean, scale float64) error
	// stateBytes is the rank's persistent optimizer-state footprint.
	stateBytes() int64
}

// stage runs a run's reducer and counts the partial rounds nobody
// contributed to.
type stage struct {
	red   reducer
	n     int       // ranks in the mesh
	ex    exchanger // the hierarchical member's exchange, nil otherwise
	empty int       // partial rounds nobody contributed to
}

// ownerComputes is the one predicate, the same for BSP and RNA, that turns the
// owner-computes update on: asked for, or free. It is free where AlgoAuto
// runs the loop's vector (reduced elements: the gradient, plus RNA's flag
// slot) as the ring pair — collective.AutoRunsRingPair answers that:
// wherever it would pick the pipelined ring, whose bytes and bits the pair
// reproduces, and at 2 ranks, where the pair has the tree's two-hop critical
// path and bits at half the bytes per hop. A pinned Algorithm keeps meaning
// the replicated update on exactly that schedule.
func ownerComputes(cfg *TrainConfig, n, reduced int) bool {
	return cfg.ShardedUpdate || (cfg.Algorithm == collective.AlgoAuto &&
		collective.AutoRunsRingPair(n, reduced))
}

// newStage selects the reducer for cfg: owner-computes (ownerComputes, or an
// exchange to run) or replicated. reduced is the length of the vector the
// loop hands the reduction: dim for BSP, dim+1 for the flag-extended RNA
// buffers.
func newStage(mesh transport.Mesh, cfg *TrainConfig, reduced int, ex exchanger) (*stage, error) {
	s := &stage{n: mesh.Size(), ex: ex}
	var err error
	if ex != nil || ownerComputes(cfg, mesh.Size(), reduced) {
		s.red, err = newShardedReducer(mesh, cfg, reduced, ex)
	} else {
		s.red, err = newReplicatedReducer(mesh, cfg)
	}
	return s, err
}

// full is the stage's BSP entry: average grad over all ranks and step.
func (s *stage) full(k int64, params, grad tensor.Vector) error {
	if err := s.red.reduce(k, grad); err != nil {
		return err
	}
	return s.red.update(k, params, params, grad, 1, 1)
}

// partial is the stage's RNA entry: reduce buf over the contributing ranks
// and apply ḡ = W·Σg, W = 1/Σw, with γ_k scaled by Σw/N (the Linear Scaling
// Rule of Algorithm 2; controller.Step gives both factors, for the simulator
// too). The update folds W into its one pass, reads the published parameters
// cur and writes the next version into buf itself, over the gradient it has
// just read: the owner-computes update its owned span, the allgather the
// rest, the replicated update the whole vector. No other thread can see buf
// and no lock is held, so neither the step nor the parameter allgather can
// stall the compute thread. next is buf, for the caller to publish, or nil
// when nobody contributed: every rank then skips the step in lockstep, unless
// an exchange is due, which still runs, its delta taken from cur, and builds
// next in buf.
func (s *stage) partial(k int64, cur, buf tensor.Vector, contributes bool) (next tensor.Vector, err error) {
	count, err := s.red.reducePartial(k, buf, contributes)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		s.empty++
		if s.ex == nil || !s.ex.due(k) {
			return nil, nil
		}
		return buf, s.red.update(k, cur, buf, nil, 0, 0)
	}
	mean, scale, err := controller.Step(count, s.n)
	if err != nil {
		return nil, err
	}
	return buf, s.red.update(k, cur, buf, buf, mean, scale)
}

// finish is the one Result epilogue: whatever the path, the fields come from
// the stage that ran.
func (s *stage) finish(res *Result, params tensor.Vector, start time.Time) *Result {
	res.Params = params
	res.EmptySyncs = s.empty
	res.OptStateBytes = s.red.stateBytes()
	res.Elapsed = time.Since(start)
	return res
}

// replicatedReducer is the replicated update: every rank reduces and steps
// the whole vector.
type replicatedReducer struct {
	mesh  transport.Mesh
	opts  collective.Options // the configured Algorithm
	optim opt.Optimizer
}

func newReplicatedReducer(mesh transport.Mesh, cfg *TrainConfig) (*replicatedReducer, error) {
	dim := cfg.Model.Dim()
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		return nil, err
	}
	return &replicatedReducer{
		mesh: mesh, optim: optim,
		opts: collective.Options{Algorithm: cfg.Algorithm},
	}, nil
}

func (r *replicatedReducer) reduce(k int64, grad tensor.Vector) error {
	return collective.AllReduceOpts(r.mesh, k, grad, collective.OpAverage, r.opts)
}

func (r *replicatedReducer) reducePartial(k int64, buf tensor.Vector, contributes bool) (int, error) {
	// The flag slot is the buffer's spare capacity: reduced where it lies.
	return collective.PartialAllReduceInPlace(r.mesh, k, buf[:len(buf)+1], contributes, r.opts)
}

func (r *replicatedReducer) update(_ int64, cur, next, g tensor.Vector, mean, scale float64) error {
	_, err := r.optim.StepTo(next, cur, g, mean, scale)
	return err
}

func (r *replicatedReducer) stateBytes() int64 { return r.optim.StateBytes() }

// shardedReducer is the owner-computes update (ZeRO-style): instead of every
// rank reducing the full gradient and redundantly running the full optimizer
// over a full copy of optimizer state, the synchronization decomposes into
// reduce-scatter → owned-shard optimizer step → parameter allgather. Each
// rank is the only one holding optimizer state for the span it owns, so state
// memory and update compute both shrink N×.
//
// Who owns what is decided once, here, because both halves must agree on it
// for the whole run. The halves are the ring pair over the reduced vector —
// the gradient for BSP, the flag-extended buffer for RNA — and rank r owns
// the part the ring completes at it (collective.RingOwned), minus the flag
// slot: a uniform chunk, or, for a hierarchical member, the run of
// parameter-server chunks its exchanger's table gives it, the flag slot
// closing the last part.
//
// Bit-identity. The scatter folds every element in the pipelined ring's
// order from its uniform chunk index and scales at the owner
// (collective/shard_ring.go), the optimizers are strictly element-wise with
// state depending only on the step count, and the fp64 allgather moves bits
// verbatim — so under ANY ownership the sharded update reproduces the
// replicated one (with a pinned ring schedule) bit for bit, and each rank's
// optimizer state equals the matching slice of the replicated state. A
// hierarchical member's table moves fold starts off the uniform chunks, so
// from three ranks up its group is bit-identical to itself only; at two ranks
// every table gives the same bits.
type shardedReducer struct {
	mesh    transport.Mesh
	reduced int           // the length of the ring pair's vector
	table   []int         // the ring pair's ownership table; nil: uniform
	ex      exchanger     // run between the step and the allgather when due
	lo, hi  int           // the owned span of the parameters
	optim   opt.Optimizer // nil when the owned span is empty
}

func newShardedReducer(mesh transport.Mesh, cfg *TrainConfig, reduced int, ex exchanger) (*shardedReducer, error) {
	dim, n := cfg.Model.Dim(), mesh.Size()
	r := &shardedReducer{mesh: mesh, reduced: reduced, ex: ex}
	if ex != nil && ex.table() != nil {
		// The table covers the parameters; the flag slot closes its last
		// part.
		r.table = append([]int(nil), ex.table()...)
		r.table[n] = reduced
	}
	r.lo, r.hi = collective.RingOwned(reduced, n, mesh.Rank(), r.table...)
	r.lo, r.hi = min(r.lo, dim), min(r.hi, dim)
	// A rank owns zero elements when the vector has fewer elements than ranks.
	var err error
	if r.hi > r.lo {
		r.optim, err = cfg.newOptimizer(r.hi - r.lo)
	}
	return r, err
}

func (r *shardedReducer) reduce(k int64, grad tensor.Vector) error {
	return collective.RingReduceScatter(r.mesh, k, grad, collective.OpAverage, r.table...)
}

// reducePartial: the contributor count rides the scatter, so every rank
// skips or applies the update in lockstep.
func (r *shardedReducer) reducePartial(k int64, buf tensor.Vector, contributes bool) (int, error) {
	return collective.PartialRingReduceScatter(r.mesh, k, buf[:r.reduced], contributes, r.table...)
}

func (r *shardedReducer) update(k int64, cur, next, g tensor.Vector, mean, scale float64) error {
	lo, hi := r.lo, r.hi
	src := cur[lo:hi]
	if g != nil && r.optim != nil {
		if _, err := r.optim.StepTo(next[lo:hi], src, g[lo:hi], mean, scale); err != nil {
			return err
		}
		src = next[lo:hi]
	}
	if r.ex != nil && r.ex.due(k) {
		// The owned span goes to the parameter server and the pulled span
		// replaces it, so the allgather ships the global model.
		if err := r.ex.exchange(k, src, next[lo:hi]); err != nil {
			return err
		}
	}
	// RNA's versions carry the flag slot as spare capacity, so the gather
	// rings over the partition the scatter used.
	return collective.RingAllGather(r.mesh, k, next[:r.reduced], r.table...)
}

func (r *shardedReducer) stateBytes() int64 {
	if r.optim == nil {
		return 0
	}
	return r.optim.StateBytes()
}
