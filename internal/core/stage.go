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
//
// Every synchronization has one shape: a reduce half leaves each rank's owned
// span of the reduced vector final, each owner steps the optimizer over its
// span, and a distribute half gives every rank the next parameters. newStage
// picks the halves once per run, from the mesh size and the length of the
// vector the loop reduces, through collective.AutoRunsRingPair:
//
//   - the ring pair: RingReduceScatter, then RingAllGather. Rank r owns the
//     span the ring completes at it (collective.RingOwned), so the optimizer
//     step runs once per element instead of once per element per rank. A
//     hierarchical member always runs it, whatever its group size: its table
//     follows the parameter server's chunks, and on an exchange
//     synchronization each member exchanges the span it owns between its
//     step and the allgather, which then ships the pulled global model
//     (exchanger, hierarchical.go);
//   - the tree: TreeReduce, then Broadcast from rank 0. Rank 0 owns the whole
//     vector and every other rank owns nothing.
//
// Each reduction has a full-participation entry (full, for BSP) and a
// partial-participation entry (partial, for RNA and eager-SGD).

// ringPair is the selection newStage runs: whether the loop's vector of that
// many elements over that many ranks runs as the ring pair, otherwise as the
// tree. Tests pin it; nothing else writes it.
var ringPair = collective.AutoRunsRingPair

// reducer is a run's stage: the halves it synchronizes with and the
// optimizer over the span its rank owns. Instead of every rank reducing the
// full gradient and redundantly running the full optimizer over a full copy
// of optimizer state, each owner holds the state of its span only
// (ZeRO-style): over the ranks the state sums to one full copy.
//
// Who owns what is decided once, here, because both halves must agree on it
// for the whole run. On the ring pair, over the reduced vector — the gradient
// for BSP, the flag-extended buffer for RNA — rank r owns the part the ring
// completes at it (collective.RingOwned), minus the flag slot: a uniform
// chunk, or, for a hierarchical member, the run of parameter-server chunks
// its exchanger's table gives it, the flag slot closing the last part. On the
// tree rank 0 owns all of it.
//
// Bit-identity. The ring's scatter folds every element in the ring's order
// from its uniform chunk index and scales at the owner (collective/
// shard_ring.go), the tree's root folds its children in ascending span order,
// the optimizers are strictly element-wise with state depending only on the
// step count, and the fp64 distribute half moves bits verbatim — so every
// rank ends with the bits a single process gets by summing the ranks'
// gradients in the schedule's order and stepping the whole vector. A
// hierarchical member's table moves fold starts off the uniform chunks, so
// from three ranks up its group is bit-identical to itself only; at two ranks
// every table, and the tree, gives the same bits.
type reducer struct {
	mesh    transport.Mesh
	ring    bool          // the ring pair; the tree otherwise
	reduced int           // the length of the reduced vector
	table   []int         // the ring pair's ownership table; nil: uniform
	ex      exchanger     // run between the step and the allgather when due
	lo, hi  int           // the owned span of the parameters
	optim   opt.Optimizer // nil when the owned span is empty
	empty   int           // partial rounds nobody contributed to
}

// newStage selects the halves: the ring pair where ringPair says so or an
// exchange is to run, the tree otherwise. reduced is the length of the vector
// the loop hands the reduction: dim for BSP, dim+1 for the flag-extended RNA
// buffers.
func newStage(mesh transport.Mesh, cfg *TrainConfig, reduced int, ex exchanger) (*reducer, error) {
	dim, n := cfg.Model.Dim(), mesh.Size()
	r := &reducer{mesh: mesh, reduced: reduced, ex: ex, ring: ex != nil || ringPair(n, reduced)}
	switch {
	case r.ring:
		if ex != nil && ex.table() != nil {
			// The table covers the parameters; the flag slot closes its
			// last part.
			r.table = append([]int(nil), ex.table()...)
			r.table[n] = reduced
		}
		r.lo, r.hi = collective.RingOwned(reduced, n, mesh.Rank(), r.table...)
	case mesh.Rank() == 0:
		r.hi = reduced
	}
	r.lo, r.hi = min(r.lo, dim), min(r.hi, dim)
	// A rank owns zero elements on the tree unless it is the root, and on the
	// ring when the vector has fewer elements than ranks.
	var err error
	if r.hi > r.lo {
		r.optim, err = cfg.newOptimizer(r.hi - r.lo)
	}
	return r, err
}

// full is the BSP entry: average grad over all ranks, step the owned
// span of params and distribute it.
func (r *reducer) full(k int64, params, grad tensor.Vector) error {
	var err error
	if r.ring {
		err = collective.RingReduceScatter(r.mesh, k, grad, collective.OpAverage, r.table...)
	} else {
		err = collective.TreeReduce(r.mesh, k, grad, collective.OpAverage)
	}
	if err != nil {
		return err
	}
	if err := r.step(k, params, params, grad, 1, 1); err != nil {
		return err
	}
	if r.ring {
		return collective.RingAllGather(r.mesh, k, params, r.table...)
	}
	return collective.Broadcast(r.mesh, k, params, 0)
}

// partial is the RNA entry: buf holds the rank's contribution, the
// sum of weight mini-batches' gradients (controller.Weigh), and the flag slot
// carries weight. It reduces buf over the contributing ranks, the flags to B,
// the mini-batches the synchronization carries, and applies ḡ = Σg/B with γ
// scaled by B/n (the Linear Scaling Rule on the effective batch;
// controller.Step gives both factors, for the simulator too), so each
// mini-batch moves the model by γ/n as under BSP. The owner's step folds 1/B
// into its one pass, reads the published parameters cur and writes the next
// version into buf itself, over the gradient it has just read, and the
// distribute half fills in the rest. No other thread can see buf and no lock
// is held, so neither the step nor the distribute half can stall the compute
// thread.
//
// The ring's scatter tells every rank B; the tree's reduce tells only the
// root, and the flag slot carries it down with the broadcast. next is buf,
// for the caller to publish, or nil when nobody contributed: every rank then
// skips the step in lockstep — the ring before its allgather, the tree after
// its broadcast — unless an exchange is due, which still runs, its delta
// taken from cur, and builds next in buf.
func (r *reducer) partial(k int64, cur, buf tensor.Vector, weight int) (next tensor.Vector, err error) {
	work := buf[:r.reduced]
	var batches int
	if r.ring {
		batches, err = collective.PartialRingReduceScatter(r.mesh, k, work, weight, r.table...)
	} else {
		batches, err = collective.PartialTreeReduce(r.mesh, k, work, weight)
	}
	if err != nil {
		return nil, err
	}
	due := r.ex != nil && r.ex.due(k)
	switch {
	case batches > 0:
		var mean, scale float64
		if mean, scale, err = controller.Step(batches, r.mesh.Size()); err == nil {
			err = r.step(k, cur, buf, buf, mean, scale)
		}
	case due:
		err = r.step(k, cur, buf, nil, 0, 0)
	case r.ring:
		r.empty++
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if r.ring {
		err = collective.RingAllGather(r.mesh, k, work, r.table...)
	} else {
		batches, err = collective.PartialBroadcast(r.mesh, k, work)
	}
	if err != nil {
		return nil, err
	}
	if batches == 0 {
		r.empty++
		if !due {
			return nil, nil
		}
	}
	return buf, nil
}

// finish is the one Result epilogue: whatever the loop, the fields come
// from the stage that ran.
func (r *reducer) finish(res *Result, params tensor.Vector, start time.Time) *Result {
	res.Params = params
	res.EmptySyncs = r.empty
	if r.optim != nil {
		res.OptStateBytes = r.optim.StateBytes()
	}
	res.Elapsed = time.Since(start)
	return res
}

// step steps the parameters over the owned span from the reduced gradient
// times mean (the mean over a partial sum's mini-batches, 1 for BSP's
// average): it reads them from cur and writes them to next. next is cur
// itself (BSP, whose one vector is updated in place) or g (RNA, whose reduced
// buffer becomes the next version); cur is not written otherwise. A nil g
// (an exchange due only) skips the step and exchanges cur's owned span.
func (r *reducer) step(k int64, cur, next, g tensor.Vector, mean, scale float64) error {
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
		// replaces it, so the allgather ships the global model; cur's span
		// is the last pull when every synchronization exchanges.
		return r.ex.exchange(k, cur[lo:hi], src, next[lo:hi])
	}
	return nil
}
