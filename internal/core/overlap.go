package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/controller"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The reducer pipeline: comm/compute overlap.
//
// A blocking step pays compute + comm back to back. The overlapped worker
// instead derives a bucket plan — emission spans from the model's layered
// backward pass, coalesced under TrainConfig.FusionBytes — and launches
// each bucket's collective (on its own tag stream, via collective.Async)
// the moment backprop finalizes the bucket's last layer. The tail of
// backprop runs concurrently with the head of the reduction, so the step
// costs roughly max(compute, comm) instead of their sum.
//
// Bit-identity. The plan is a pure function of (model architecture,
// FusionBytes), so every rank derives the identical bucket list. Each
// bucket's collective is the deterministic synchronous engine running on a
// private tag stream over a disjoint parameter span, so launching the
// buckets concurrently, serially (OverlapSerial), or in any interleaving
// produces the same bits. A plan with a single bucket is additionally
// bit-identical to the non-overlapped worker: the whole-vector collective
// runs once with the same inputs, and its result does not depend on the
// iteration tag the stream packing rewrites.

// fusionBytes resolves the bucket-coalescing threshold.
func (c *TrainConfig) fusionBytes() int {
	if c.FusionBytes <= 0 {
		return collective.DefaultFusionBytes
	}
	return c.FusionBytes
}

// planBuckets derives and validates the shared bucket plan.
func (c *TrainConfig) planBuckets() ([]model.Bucket, error) {
	plan := model.PlanBuckets(model.Buckets(c.Model), c.fusionBytes())
	if err := model.ValidateBuckets(plan, c.Model.Dim()); err != nil {
		return nil, fmt.Errorf("core: bucket plan: %w", err)
	}
	return plan, nil
}

// bucketReducer launches one averaging collective per ready bucket during
// the backward pass. It is the emit-callback target for model.GradientEmit.
type bucketReducer struct {
	as       *collective.Async
	plan     []model.Bucket
	grad     tensor.Vector
	residual tensor.Vector // nil when compression is off
	iter     int64
	n        int // mesh size, for the error-feedback fold
	cfg      *TrainConfig

	handles  []*collective.Handle
	launched int
}

// emit launches every bucket whose last layer has now finalized. In
// OverlapSerial mode each launch is joined immediately, which serializes
// comm after compute bucket by bucket — the sequential reference schedule.
func (r *bucketReducer) emit(layer int) error {
	for r.launched < len(r.plan) && r.plan[r.launched].LastLayer <= layer {
		b := r.plan[r.launched]
		seg := r.grad[b.Lo:b.Hi]
		var segRes tensor.Vector
		if r.residual != nil {
			// Error feedback, bucket-local: same fold as the blocking
			// worker's whole-vector AddScaled/Zero, restricted to this
			// bucket's span (spans are disjoint, so the per-element
			// arithmetic is unchanged).
			segRes = r.residual[b.Lo:b.Hi]
			_ = seg.AddScaled(float64(r.n), segRes)
			segRes.Zero()
		}
		h, err := r.as.Start(int32(r.launched), r.iter, seg, collective.OpAverage, collective.Options{
			Compression: r.cfg.Compression, Residual: segRes,
		})
		if err != nil {
			return err
		}
		r.handles[r.launched] = h
		r.launched++
		if r.cfg.OverlapSerial {
			if err := h.Wait(); err != nil {
				return err
			}
		}
	}
	return nil
}

// wait joins every launched bucket collective in launch order.
func (r *bucketReducer) wait() error {
	var first error
	for i := 0; i < r.launched; i++ {
		if err := r.handles[i].Wait(); err != nil && first == nil {
			first = err
		}
		r.handles[i] = nil
	}
	if first != nil {
		return first
	}
	if r.launched != len(r.plan) {
		return fmt.Errorf("core: %d of %d buckets launched", r.launched, len(r.plan))
	}
	return nil
}

// runBSPOverlapped is RunBSPWorker with the reducer pipeline: bucket
// collectives launch during backprop instead of after the barrier. The
// barrier moves after the reduction — the collectives themselves already
// synchronize all ranks, so the controller round-trip is bookkeeping and
// pays no extra wall-clock on the critical path.
func runBSPOverlapped(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig) (*Result, error) {
	start := time.Now()
	rank := mesh.Rank()
	n := mesh.Size()
	dim := cfg.Model.Dim()

	plan, err := cfg.planBuckets()
	if err != nil {
		return nil, err
	}
	optim, err := cfg.newOptimizer(dim)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	params := tensor.New(dim)
	cfg.Model.Init(rng.New(cfg.Seed+7777), params) // same init on all ranks
	batchSrc := src.Split(rank + 1)

	as := collective.NewAsync(mesh)
	res := &Result{Losses: make([]float64, 0, cfg.Iterations)}
	grad := tensor.New(dim)
	red := &bucketReducer{
		as: as, plan: plan, grad: grad, residual: cfg.residual(dim),
		n: n, cfg: &cfg, handles: make([]*collective.Handle, len(plan)),
	}
	for k := int64(0); k < int64(cfg.Iterations); k++ {
		red.iter, red.launched = k, 0
		batch := cfg.Batch(batchSrc)
		loss, err := model.GradientEmit(cfg.Model, params, grad, batch, red.emit)
		if err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		if cfg.SlowDown != nil {
			if d := cfg.SlowDown(rank, int(k)); d > 0 {
				time.Sleep(d)
			}
		}
		res.Losses = append(res.Losses, loss)
		if err := red.wait(); err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		if err := ctrl.Ready(rank, k); err != nil {
			return nil, err
		}
		fired, _ := ctrl.Await(k)
		<-fired
		if _, err := optim.Step(params, grad, 1); err != nil {
			return nil, fmt.Errorf("rank %d iter %d: %w", rank, k, err)
		}
		res.Contributed++
		if rank == 0 {
			ctrl.Forget(k - 2)
		}
	}
	res.Params = params
	res.Elapsed = time.Since(start)
	res.MaxInFlight = as.MaxInFlight()
	return res, nil
}

// runRNAOverlapped is runRNAWorker with a bucketed communication thread:
// each synchronization splits the partial AllReduce into the shared bucket
// plan and runs the bucket collectives concurrently on one mesh. The
// compute thread is unchanged — RNA already overlaps compute with
// communication across iterations; bucketing pipelines the reduction
// itself, so a straggling chunk of one bucket no longer idles the link.
//
// Every bucket's partial collective carries its own contributor flag; all
// ranks pass the same contributes bit to every bucket of an iteration, so
// the counts agree across buckets by construction (verified at runtime).
func runRNAOverlapped(mesh transport.Mesh, ctrl *controller.Controller, cfg TrainConfig, post postSyncHook) (*Result, error) {
	start := time.Now()
	rank := mesh.Rank()
	n := mesh.Size()
	dim := cfg.Model.Dim()

	plan, err := cfg.planBuckets()
	if err != nil {
		return nil, err
	}
	acc, err := NewAccumulator(dim, cfg.bound())
	if err != nil {
		return nil, err
	}
	optim, err := cfg.newOptimizer(dim)
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
	zero := tensor.New(dim)
	as := collective.NewAsync(mesh)

	var (
		wg         sync.WaitGroup
		computeErr error
		commErr    error
	)

	// Compute thread — identical to the blocking worker's.
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

	// Communication thread: bucketed partial AllReduce.
	wg.Add(1)
	go func() {
		defer wg.Done()
		residual := cfg.residual(dim)
		handles := make([]*collective.Handle, len(plan))
		upd := tensor.New(dim)
		fail := func(k int64, err error) {
			commErr = fmt.Errorf("rank %d iter %d: %w", rank, k, err)
			abort()
		}
		for k := int64(0); k < int64(cfg.Iterations); k++ {
			fired, _ := ctrl.Await(k)
			<-fired

			contrib, ok, err := acc.Take(k)
			if err != nil {
				fail(k, err)
				return
			}
			in := zero
			if ok {
				in = contrib
				res.Contributed++
				// Error feedback (same fold as the blocking worker): the
				// whole-vector add touches exactly the union of the disjoint
				// bucket spans.
				if residual != nil {
					_ = contrib.Add(residual)
					residual.Zero()
				}
			} else {
				res.NullContribs++
			}
			for i, b := range plan {
				var segRes tensor.Vector
				if residual != nil {
					segRes = residual[b.Lo:b.Hi]
				}
				h, err := as.StartPartial(int32(i), k, in[b.Lo:b.Hi], ok, collective.Options{
					Compression: cfg.Compression, Residual: segRes,
				})
				if err != nil {
					fail(k, err)
					return
				}
				handles[i] = h
				if cfg.OverlapSerial {
					if err := h.Wait(); err != nil {
						fail(k, err)
						return
					}
				}
			}
			contributors := -1
			for i := range plan {
				if err := handles[i].Wait(); err != nil {
					fail(k, err)
					return
				}
				pr := handles[i].Partial()
				if contributors < 0 {
					contributors = pr.Contributors
				} else if pr.Contributors != contributors {
					fail(k, fmt.Errorf("core: bucket %d counted %d contributors, bucket 0 counted %d",
						i, pr.Contributors, contributors))
					return
				}
			}
			if contributors > 0 {
				// Assemble ḡ = W·Σg bucket by bucket, then step once with the
				// Linear Scaling Rule — the same arithmetic, elementwise, as
				// the whole-vector path.
				for i, b := range plan {
					pr := handles[i].Partial()
					pr.Sum.Scale(1 / float64(contributors))
					copy(upd[b.Lo:b.Hi], pr.Sum)
				}
				scale, err := opt.LinearScale(contributors, n)
				if err != nil {
					commErr = err
					abort()
					return
				}
				mu.Lock()
				if _, err := optim.Step(params, upd, scale); err != nil {
					mu.Unlock()
					fail(k, err)
					return
				}
				mu.Unlock()
			}
			for i := range plan {
				pr := handles[i].Partial()
				pr.Release()
				handles[i] = nil
			}
			if ok {
				// Every bucket collective has copied its span out.
				acc.Recycle(contrib)
			}
			if post != nil {
				if err := post(k, &mu, params); err != nil {
					fail(k, err)
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
	res.Elapsed = time.Since(start)
	res.MaxInFlight = as.MaxInFlight()
	return res, nil
}
