package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Owner-computes sharded update (ZeRO-style): instead of every rank
// reducing the full gradient and redundantly running the full optimizer
// over a full copy of optimizer state, the synchronization decomposes into
// reduce-scatter → owned-shard optimizer step → parameter allgather. Rank r
// owns the span offs[r]:offs[r+1] of the parameter vector; it is the only
// rank holding optimizer state for that span, so state memory and update
// compute both shrink N×.
//
// Bit-identity. The reduce-scatter folds in the pipelined ring's order and
// scales at the owner (collective/shard.go), the optimizers are strictly
// element-wise with state depending only on the step count, and the fp64
// allgather moves bits verbatim — so under ANY partition the sharded path
// reproduces the replicated path (with a pinned ring schedule) bit for bit,
// and each rank's optimizer state equals the matching slice of the
// replicated state.
//
// Lossy wires (the fp64-reduce / compressed-allgather invariant). The
// reduction always ships exact fp64; Compression applies to the parameter
// allgather only. The owner then keeps MASTER WEIGHTS for its span: the
// error-feedback residual holds exact-minus-quantized after each gather
// (tensor.RoundTripEF at the owner), and adding it back before the next
// step restores the exact fp64 trajectory. Gradients are evaluated at the
// quantized parameters on every rank — the usual mixed-precision contract —
// and all ranks stay bit-identical because they all hold the same decoded
// grid values.

// shardSpans resolves the ownership table and this rank's span.
func shardSpans(cfg *TrainConfig, dim, n, rank int) (offs []int, span int, err error) {
	if cfg.ShardWeights != nil && len(cfg.ShardWeights) != n {
		return nil, 0, fmt.Errorf("core: %d shard weights over %d ranks", len(cfg.ShardWeights), n)
	}
	offs, err = collective.ShardOffsets(dim, n, cfg.ShardWeights)
	if err != nil {
		return nil, 0, err
	}
	return offs, offs[rank+1] - offs[rank], nil
}

// shardOptimizer builds the owned-span optimizer (nil when the span is
// empty — a rank can own zero elements under an extreme partition).
func shardOptimizer(cfg *TrainConfig, span int) (opt.Optimizer, error) {
	if span == 0 {
		return nil, nil
	}
	return cfg.newOptimizer(span)
}

// restoreMaster adds the owned span's error-feedback residual back into the
// parameters, recovering the exact fp64 master weights before an optimizer
// step; the residual is re-captured by the next allgather's RoundTripEF.
func restoreMaster(params, residual tensor.Vector, lo, hi int) {
	if residual == nil {
		return
	}
	own := params[lo:hi]
	_ = own.Add(residual[lo:hi])
	residual[lo:hi].Zero()
}

// runBSPSharded is RunBSPWorker's owner-computes path.
func runBSPSharded(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	start := time.Now()
	rank := mesh.Rank()
	n := mesh.Size()
	dim := cfg.Model.Dim()

	offs, span, err := shardSpans(&cfg, dim, n, rank)
	if err != nil {
		return nil, err
	}
	optim, err := shardOptimizer(&cfg, span)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params) // same init on all ranks
	batchSrc := src.Split(rank + 1)

	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	grad := tensor.New(dim)
	residual := cfg.residual(dim)
	lo, hi := offs[rank], offs[rank+1]
	for k := int64(0); k < int64(cfg.Iterations); k++ {
		batch := cfg.Batch(batchSrc)
		loss, err := cfg.Model.Gradient(params, grad, batch)
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		if cfg.SlowDown != nil {
			if d := cfg.SlowDown(rank, int(k)); d > 0 {
				time.Sleep(d)
			}
		}
		res.Losses = append(res.Losses, loss)
		if err := ctrl.Ready(rank, k); err != nil {
			return nil, err
		}
		fired, _ := ctrl.Await(k)
		<-fired
		if err := collective.ReduceScatter(mesh, k, grad, collective.OpAverage, offs); err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		if optim != nil {
			restoreMaster(params, residual, lo, hi)
			if _, err := optim.Step(params[lo:hi], grad[lo:hi], 1); err != nil {
				return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
			}
		}
		if err := collective.AllGather(mesh, k, params, offs, collective.Options{
			Compression: cfg.Compression, Residual: residual,
		}); err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		res.Contributed++
		if rank == 0 {
			ctrl.Forget(k - 2)
		}
	}
	res.Params = params
	if optim != nil {
		res.OptStateBytes = optim.StateBytes()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runRNASharded is runRNAWorker's owner-computes path: the same
// compute/communication thread split and bounded-staleness gate, with the
// partial collective decomposed into PartialReduceScatter (the contributor
// count rides the scatter, so every rank skips or applies the update in
// lockstep) and a parameter AllGather after the owned-span step.
func runRNASharded(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig, post postSyncHook) (*Result, error) {
	start := time.Now()
	rank := mesh.Rank()
	n := mesh.Size()
	dim := cfg.Model.Dim()

	acc, err := NewAccumulator(dim, cfg.bound())
	if err != nil {
		return nil, err
	}
	offs, span, err := shardSpans(&cfg, dim, n, rank)
	if err != nil {
		return nil, err
	}
	optim, err := shardOptimizer(&cfg, span)
	if err != nil {
		return nil, err
	}

	src := rng.New(cfg.Seed)
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params) // same init on all ranks
	batchSrc := src.Split(rank + 1)

	var (
		mu      sync.Mutex // guards params, synced and aborted
		cond    = sync.NewCond(&mu)
		synced  = int64(-1)
		aborted bool
	)
	abort := func() {
		mu.Lock()
		aborted = true
		cond.Broadcast()
		mu.Unlock()
	}
	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	// nullGrad stands in for the contribution on null rounds; only its owned
	// span is ever written (by the reduce-scatter).
	nullGrad := tensor.New(dim)
	lo, hi := offs[rank], offs[rank+1]

	var (
		wg         sync.WaitGroup
		computeErr error
		commErr    error
	)

	// Compute thread — identical to the replicated path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		snapshot := tensor.New(dim)
		for k := int64(0); k < int64(cfg.Iterations); k++ {
			mu.Lock()
			for k-synced > int64(cfg.bound()) && !aborted {
				cond.Wait()
			}
			if aborted {
				mu.Unlock()
				return
			}
			copy(snapshot, params)
			mu.Unlock()

			batch := cfg.Batch(batchSrc)
			g := acc.Lease()
			loss, err := cfg.Model.Gradient(snapshot, g, batch)
			if err != nil {
				computeErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			if cfg.SlowDown != nil {
				if d := cfg.SlowDown(rank, int(k)); d > 0 {
					time.Sleep(d)
				}
			}
			res.Losses = append(res.Losses, loss)
			if err := acc.Commit(k, g); err != nil {
				computeErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			if err := ctrl.Ready(rank, k); err != nil {
				computeErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
		}
	}()

	// Communication thread.
	wg.Add(1)
	go func() {
		defer wg.Done()
		residual := cfg.residual(dim)
		for k := int64(0); k < int64(cfg.Iterations); k++ {
			fired, _ := ctrl.Await(k)
			<-fired

			contrib, ok, err := acc.Take(k)
			if err != nil {
				commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			in := nullGrad
			if ok {
				in = contrib
				res.Contributed++
			} else {
				res.NullContribs++
			}
			// No gradient error feedback here: with a sharded update the
			// reduction is always exact fp64, and the residual tracks the
			// PARAMETER quantization of the allgather instead.
			count, err := collective.PartialReduceScatter(mesh, k, in, ok, offs)
			if err != nil {
				commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
				abort()
				return
			}
			if count > 0 {
				// ḡ = W·Σg with W = 1/Σw over the owned span only; γ_k
				// scaled by Σw/N, exactly the replicated Algorithm 2 path.
				ownSum := in[lo:hi]
				ownSum.Scale(1 / float64(count))
				scale, err := opt.LinearScale(count, n)
				if err != nil {
					commErr = err
					abort()
					return
				}
				mu.Lock()
				if optim != nil {
					restoreMaster(params, residual, lo, hi)
					if _, err := optim.Step(params[lo:hi], ownSum, scale); err != nil {
						mu.Unlock()
						commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
						abort()
						return
					}
				}
				// Gather under mu so compute snapshots never observe a
				// half-updated vector; waiting compute threads sit in
				// cond.Wait and do not block the collective.
				if err := collective.AllGather(mesh, k, params, offs, collective.Options{
					Compression: cfg.Compression, Residual: residual,
				}); err != nil {
					mu.Unlock()
					commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
					abort()
					return
				}
				mu.Unlock()
			}
			// (When every rank computed the identical zero count, the
			// update AND the gather are skipped in lockstep, like the
			// replicated path skips its step.)
			if ok {
				acc.Recycle(contrib)
			}
			if post != nil {
				if err := post(k, &mu, params); err != nil {
					commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
					abort()
					return
				}
			}
			// Publish the completed synchronization only after the post
			// hook, so compute snapshots at k+1 deterministically include
			// the hook's parameter mutation (see runRNAWorker).
			mu.Lock()
			synced = k
			cond.Broadcast()
			mu.Unlock()
			if rank == 0 {
				ctrl.Forget(k - int64(cfg.bound()) - 2)
			}
		}
	}()

	wg.Wait()
	if computeErr != nil {
		return nil, computeErr
	}
	if commErr != nil {
		return nil, commErr
	}
	res.Params = params
	res.StaleDropped = int(acc.Dropped())
	if optim != nil {
		res.OptStateBytes = optim.StateBytes()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
